//! Ablation knobs for the two traversal hot paths.
//!
//! Both ends of every TV pipeline are traversals: the spanning-tree
//! step (a BFS for TV-filter, Shiloach–Vishkin for TV-SMP) and the
//! step-6 connected-components tail. [`TraversalTuning`] selects the
//! engineered fast variants (direction-optimizing BFS, FastSV-style
//! hooking) or the classic baselines, so `bcc-bench` can ablate the
//! rebuilt kernels against the originals cell by cell.

/// BFS frontier-expansion strategy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum BfsStrategy {
    /// Classic level-synchronous top-down expansion only.
    TopDown,
    /// Direction-optimizing (Beamer-style) hybrid: top-down while the
    /// frontier is thin, bottom-up sweeps over unvisited vertices once
    /// the frontier's out-edges dominate the remaining graph.
    #[default]
    Hybrid,
}

/// Connected-components / spanning-forest algorithm variant.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SvVariant {
    /// The classic synchronous graft-and-shortcut rounds (paper §3.2).
    Classic,
    /// FastSV-style single sweep: hooking with in-place CAS retry, path
    /// halving during root chases (a slot already pointing at its root
    /// is never written), and an early exit that skips the trailing
    /// verification sweep.
    #[default]
    FastSv,
}

/// The traversal knobs threaded from `BccConfig` down to the kernels.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraversalTuning {
    /// BFS strategy for TV-filter's spanning tree.
    pub bfs: BfsStrategy,
    /// Direction heuristic: switch top-down → bottom-up when the
    /// frontier's out-edge count exceeds `remaining_edges / alpha`
    /// (Beamer's α; higher = later switch).
    pub alpha: u32,
    /// Direction heuristic: switch bottom-up → top-down when the
    /// frontier shrinks below `n / beta` vertices (Beamer's β).
    pub beta: u32,
    /// Connectivity variant for the TV-SMP spanning tree and the shared
    /// step-6 tail.
    pub sv: SvVariant,
}

impl Default for TraversalTuning {
    fn default() -> Self {
        TraversalTuning {
            bfs: BfsStrategy::default(),
            // α = 6 measured best across the bench families: large
            // enough that the fat mid-levels still go bottom-up on
            // random graphs, small enough that spatial graphs with a
            // slowly-widening wavefront don't enter the sweep a level
            // too early (the first sweep is the expensive one — it
            // covers every vertex).
            alpha: 6,
            beta: 20,
            sv: SvVariant::default(),
        }
    }
}

impl TraversalTuning {
    /// The engineered defaults: hybrid BFS + FastSV.
    pub fn fast() -> Self {
        TraversalTuning::default()
    }

    /// Both classic baselines: top-down BFS + classic SV.
    pub fn classic() -> Self {
        TraversalTuning {
            bfs: BfsStrategy::TopDown,
            sv: SvVariant::Classic,
            ..TraversalTuning::default()
        }
    }

    /// Parses an ablation spec: `+`-joined tokens out of `topdown`,
    /// `hybrid`, `classic-sv`, `fastsv` applied on top of the defaults
    /// (`"topdown"` alone still means FastSV for connectivity; write
    /// `"topdown+classic-sv"` for the full classic configuration).
    ///
    /// ```
    /// use bcc_connectivity::{BfsStrategy, SvVariant, TraversalTuning};
    ///
    /// let t: TraversalTuning = "topdown+classic-sv".parse().unwrap();
    /// assert_eq!(t.bfs, BfsStrategy::TopDown);
    /// assert_eq!(t.sv, SvVariant::Classic);
    /// assert!("warp-speed".parse::<TraversalTuning>().is_err());
    /// ```
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let mut t = TraversalTuning::default();
        for token in spec.split('+') {
            match token.trim() {
                "topdown" | "top-down" => t.bfs = BfsStrategy::TopDown,
                "hybrid" => t.bfs = BfsStrategy::Hybrid,
                "classic-sv" | "classic" => t.sv = SvVariant::Classic,
                "fastsv" | "fast-sv" => t.sv = SvVariant::FastSv,
                other => return Err(format!("unknown tuning token `{other}`")),
            }
        }
        Ok(t)
    }

    /// Canonical spec string (`parse_spec` round-trips it).
    pub fn spec(&self) -> String {
        format!(
            "{}+{}",
            match self.bfs {
                BfsStrategy::TopDown => "topdown",
                BfsStrategy::Hybrid => "hybrid",
            },
            match self.sv {
                SvVariant::Classic => "classic-sv",
                SvVariant::FastSv => "fastsv",
            }
        )
    }
}

impl std::str::FromStr for TraversalTuning {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TraversalTuning::parse_spec(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_fast_variants() {
        let t = TraversalTuning::default();
        assert_eq!(t.bfs, BfsStrategy::Hybrid);
        assert_eq!(t.sv, SvVariant::FastSv);
        assert_eq!(t, TraversalTuning::fast());
    }

    #[test]
    fn spec_round_trips() {
        for spec in ["hybrid+fastsv", "topdown+classic-sv", "hybrid+classic-sv"] {
            let t = TraversalTuning::parse_spec(spec).unwrap();
            assert_eq!(t.spec(), spec);
            assert_eq!(t, t.spec().parse().unwrap());
        }
        assert_eq!(TraversalTuning::classic().spec(), "topdown+classic-sv");
    }

    #[test]
    fn partial_specs_start_from_defaults() {
        let t = TraversalTuning::parse_spec("topdown").unwrap();
        assert_eq!(t.bfs, BfsStrategy::TopDown);
        assert_eq!(t.sv, SvVariant::FastSv);
        let t = TraversalTuning::parse_spec("classic-sv").unwrap();
        assert_eq!(t.bfs, BfsStrategy::Hybrid);
        assert_eq!(t.sv, SvVariant::Classic);
    }

    #[test]
    fn unknown_tokens_rejected() {
        assert!(TraversalTuning::parse_spec("").is_err());
        assert!(TraversalTuning::parse_spec("hybrid+warp").is_err());
    }
}
