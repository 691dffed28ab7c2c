//! Workload profiles and drivers for the daemon's SLO benchmarks.
//!
//! Two driver disciplines, because they answer different questions:
//!
//! * **Closed-loop** ([`Mode::Closed`]): the driver submits back to
//!   back — each query is answered before its submit returns, each
//!   update waits for room in its bounded writer queue — classic
//!   saturation testing. Latency here measures the system at its own
//!   maximum throughput, and `queries_per_sec` is the capacity.
//! * **Open-loop** ([`Mode::Open`]): arrivals follow a fixed schedule
//!   (`rate` per second) regardless of how the system is doing, and
//!   every job is stamped with its *scheduled* arrival time. If the
//!   daemon falls behind, the backlog shows up as latency on the jobs
//!   that waited — the driver never politely slows down, so there is
//!   no coordinated omission and the tail is honest.
//!
//! Four mixes: read-heavy (99/1), churn-heavy (90/10), an adversarial
//! hot-component variant of the 99/1 mix where every operation targets
//! one component — all commits land on one shard and every query
//! routes into it, so snapshot lag concentrates where the queries
//! are — and an update-storm inversion (10/90) that drowns the write
//! path: the overload cells drive it above commit capacity to prove
//! admission control sheds with typed rejections instead of letting
//! the read tail collapse.

use crate::api::Request;
use crate::daemon::Daemon;
use crate::ServeReport;
use bcc_graph::{Graph, GraphBuilder};
use bcc_query::{EdgeUpdate, Failure, Query};
use std::time::{Duration, Instant};

/// Read/write mix of a workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Profile {
    /// 99% queries, 1% updates, spread over all components.
    ReadHeavy,
    /// 90% queries, 10% updates, spread over all components.
    ChurnHeavy,
    /// 99/1 mix with **every** operation aimed at component 0: the
    /// adversarial case where commits and queries contend on one
    /// shard.
    HotComponent,
    /// 10% queries, 90% updates, spread over all components: the
    /// write-path stress mix the admission-control overload cells
    /// drive past commit capacity.
    UpdateStorm,
}

impl Profile {
    /// All profiles, in benchmark order.
    pub const ALL: [Profile; 4] = [
        Profile::ReadHeavy,
        Profile::ChurnHeavy,
        Profile::HotComponent,
        Profile::UpdateStorm,
    ];

    /// Stable name used in benchmark cell keys.
    pub fn name(self) -> &'static str {
        match self {
            Profile::ReadHeavy => "read-heavy",
            Profile::ChurnHeavy => "churn-heavy",
            Profile::HotComponent => "hot-component",
            Profile::UpdateStorm => "update-storm",
        }
    }

    /// Fraction of operations that are queries.
    pub fn read_fraction(self) -> f64 {
        match self {
            Profile::ReadHeavy | Profile::HotComponent => 0.99,
            Profile::ChurnHeavy => 0.90,
            Profile::UpdateStorm => 0.10,
        }
    }

    fn hot(self) -> bool {
        self == Profile::HotComponent
    }
}

impl std::str::FromStr for Profile {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        Profile::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Profile::ALL.iter().map(|p| p.name()).collect();
                format!("unknown profile {s:?} ({})", names.join("|"))
            })
    }
}

/// Driver discipline (see the [module docs](self)).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Mode {
    /// Submit back to back, as fast as the daemon answers and admits.
    Closed,
    /// Fixed arrival schedule at `rate` operations per second.
    Open {
        /// Scheduled arrivals per second (queries + updates).
        rate: f64,
    },
}

impl Mode {
    /// Stable name used in benchmark cell keys.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Closed => "closed",
            Mode::Open { .. } => "open",
        }
    }
}

/// One workload run's shape.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Read/write mix.
    pub profile: Profile,
    /// Driver discipline.
    pub mode: Mode,
    /// How long to keep submitting.
    pub duration: Duration,
    /// Component count of the instance graph (operations stay inside
    /// one component, so the generator needs the layout).
    pub parts: u32,
    /// Generator seed.
    pub seed: u64,
}

/// What a workload run produced.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Submission window plus drain: from first submit to the last
    /// answer (shutdown completes the drain, so every offered
    /// operation is accounted).
    pub wall: Duration,
    /// Queries submitted.
    pub offered_queries: u64,
    /// Updates submitted.
    pub offered_updates: u64,
    /// The daemon's merged statistics.
    pub serve: ServeReport,
}

impl WorkloadReport {
    /// Answered queries per second of wall time.
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.serve.answered as f64 / self.wall.as_secs_f64()
    }
}

/// The benchmark instance: `parts` disjoint random connected
/// components on contiguous id ranges (component `c` owns
/// `[c·n/parts, (c+1)·n/parts)`), each a ring plus `len/4` random
/// chords — 2-edge-connected in the main, with enough redundancy that
/// resilience queries have non-trivial answers. Deterministic in
/// `seed`.
pub fn component_grid(n: u32, parts: u32, seed: u64) -> Graph {
    assert!(parts >= 1 && n >= 3 * parts, "need ≥3 vertices per part");
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let part_n = n / parts;
    for c in 0..parts {
        let lo = c * part_n;
        let len = if c + 1 == parts { n - lo } else { part_n };
        for i in 0..len {
            edges.push((lo + i, lo + (i + 1) % len));
        }
        for _ in 0..len / 4 {
            let a = lo + (lcg(&mut state) % len as u64) as u32;
            let b = lo + (lcg(&mut state) % len as u64) as u32;
            if a != b {
                edges.push((a, b));
            }
        }
    }
    GraphBuilder::new(n).edges(edges).build().unwrap()
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

pub(crate) enum Op {
    Query(Query),
    Update(EdgeUpdate),
}

/// Deterministic operation stream over a [`component_grid`] instance.
pub(crate) struct OpGen {
    n: u32,
    parts: u32,
    part_n: u32,
    hot: bool,
    /// Query threshold out of 10_000 (read_fraction × 10_000).
    read_per_myriad: u64,
    state: u64,
    /// Per-part chords currently toggled *on* by this generator.
    toggles: Vec<Vec<(u32, u32)>>,
}

impl OpGen {
    pub(crate) fn new(n: u32, parts: u32, profile: Profile, seed: u64) -> Self {
        OpGen {
            n,
            parts,
            part_n: n / parts,
            hot: profile.hot(),
            read_per_myriad: (profile.read_fraction() * 10_000.0) as u64,
            state: seed ^ 0xd1b5_4a32_d192_ed03,
            toggles: vec![Vec::new(); parts as usize],
        }
    }

    fn pick_part(&mut self) -> u32 {
        if self.hot {
            0
        } else {
            (lcg(&mut self.state) % self.parts as u64) as u32
        }
    }

    /// A vertex inside part `c`.
    fn vert(&mut self, c: u32) -> u32 {
        let lo = c * self.part_n;
        let len = if c + 1 == self.parts {
            self.n - lo
        } else {
            self.part_n
        };
        lo + (lcg(&mut self.state) % len as u64) as u32
    }

    pub(crate) fn next(&mut self) -> Op {
        let c = self.pick_part();
        if lcg(&mut self.state) % 10_000 < self.read_per_myriad {
            let u = self.vert(c);
            let v = self.vert(c);
            let x = self.vert(c);
            let q = match lcg(&mut self.state) % 100 {
                0..=24 => Query::Connected(u, v),
                25..=54 => Query::SameBlock(u, v),
                55..=69 => Query::IsArticulation(x),
                70..=79 => Query::IsBridge(u, v),
                80..=94 => Query::SurvivesFailure(u, v, Failure::Vertex(x)),
                _ => Query::VertexCutBetween(u, v),
            };
            Op::Query(q)
        } else {
            let toggled = self.toggles[c as usize].len();
            if toggled > 0 && lcg(&mut self.state).is_multiple_of(2) {
                let i = (lcg(&mut self.state) % toggled as u64) as usize;
                let (u, v) = self.toggles[c as usize].swap_remove(i);
                Op::Update(EdgeUpdate::Remove(u, v))
            } else {
                let u = self.vert(c);
                let v = self.vert(c);
                if u == v {
                    return self.next(); // reroll the rare self pair
                }
                self.toggles[c as usize].push((u, v));
                Op::Update(EdgeUpdate::Insert(u, v))
            }
        }
    }
}

/// Drives `daemon` with the configured workload, shuts it down, and
/// returns the merged report. Operations stay inside single components
/// of the [`component_grid`] layout, so updates exercise shard-scoped
/// commits without unbounded cross-shard merging.
pub fn run_workload(daemon: Daemon, cfg: &WorkloadConfig) -> WorkloadReport {
    let n = daemon.store().n();
    let mut gen = OpGen::new(n, cfg.parts, cfg.profile, cfg.seed);
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let mut offered_queries = 0u64;
    let mut offered_updates = 0u64;

    let mut submit = |daemon: &Daemon, op: Op, issued: Instant| {
        match op {
            Op::Query(q) => {
                let req = Request::Query { id: 0, query: q };
                if daemon.submit_at(req, issued).is_ok() {
                    offered_queries += 1;
                }
            }
            Op::Update(u) => {
                let req = Request::Update { id: 0, update: u };
                // A shed comes back as a typed `Overloaded` rejection;
                // the daemon counts it into `ServeReport::shed_updates`
                // so the driver only tracks what was admitted.
                if daemon.submit_at(req, issued).is_ok() {
                    offered_updates += 1;
                }
            }
        };
    };

    match cfg.mode {
        Mode::Closed => {
            while Instant::now() < deadline {
                submit(&daemon, gen.next(), Instant::now());
            }
        }
        Mode::Open { rate } => {
            assert!(rate > 0.0, "open-loop rate must be positive");
            let tick = Duration::from_secs_f64(1.0 / rate);
            let mut k = 0u64;
            loop {
                let scheduled = start + tick * k as u32;
                if scheduled >= deadline {
                    break;
                }
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                // Emit every arrival whose schedule has passed,
                // stamped with its *scheduled* instant (not `now`):
                // backlog counts against latency.
                submit(&daemon, gen.next(), scheduled);
                k += 1;
            }
        }
    }

    let serve = daemon.shutdown();
    WorkloadReport {
        wall: start.elapsed(),
        offered_queries,
        offered_updates,
        serve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Daemon, ServeConfig, ShardedStore};
    use bcc_smp::Pool;
    use std::sync::Arc;

    #[test]
    fn component_grid_is_deterministic_and_partitioned() {
        let a = component_grid(120, 4, 7);
        let b = component_grid(120, 4, 7);
        assert_eq!(a.n(), 120);
        assert_eq!(a.m(), b.m());
        // No edge crosses a part boundary.
        for e in a.edges() {
            assert_eq!(e.u / 30, e.v / 30, "edge {e:?} crosses parts");
        }
    }

    #[test]
    fn profiles_parse_from_their_names_only() {
        for p in Profile::ALL {
            assert_eq!(p.name().parse::<Profile>(), Ok(p));
        }
        assert!("churny".parse::<Profile>().is_err());
    }

    #[test]
    fn opgen_respects_profile_mix_and_layout() {
        let mut gen = OpGen::new(300, 3, Profile::ChurnHeavy, 42);
        let (mut q, mut u) = (0u64, 0u64);
        for _ in 0..5_000 {
            match gen.next() {
                Op::Query(_) => q += 1,
                Op::Update(EdgeUpdate::Insert(a, b) | EdgeUpdate::Remove(a, b)) => {
                    u += 1;
                    assert_eq!(a / 100, b / 100, "update crossed a part");
                }
            }
        }
        let frac = q as f64 / (q + u) as f64;
        assert!((frac - 0.90).abs() < 0.03, "query fraction {frac}");

        // Hot profile: everything in part 0.
        let mut gen = OpGen::new(300, 3, Profile::HotComponent, 42);
        for _ in 0..2_000 {
            match gen.next() {
                Op::Query(Query::Connected(a, _) | Query::IsArticulation(a)) => {
                    assert!(a < 100)
                }
                Op::Query(_) => {}
                Op::Update(EdgeUpdate::Insert(a, b) | EdgeUpdate::Remove(a, b)) => {
                    assert!(a < 100 && b < 100)
                }
            }
        }
    }

    #[test]
    fn closed_loop_smoke_run_answers_and_commits() {
        let pool = Pool::new(2);
        let g = component_grid(240, 4, 1);
        let store = Arc::new(ShardedStore::new(&pool, &g, 2).unwrap());
        let daemon = Daemon::spawn(
            Arc::clone(&store),
            ServeConfig::builder()
                .batch_max(8)
                .flush_interval(Duration::from_millis(1))
                .build(),
        );
        let report = run_workload(
            daemon,
            &WorkloadConfig {
                profile: Profile::ChurnHeavy,
                mode: Mode::Closed,
                duration: Duration::from_millis(120),
                parts: 4,
                seed: 3,
            },
        );
        assert!(report.serve.writer_error.is_none());
        assert_eq!(report.serve.answered, report.offered_queries);
        assert_eq!(report.serve.updates_applied, report.offered_updates);
        assert!(report.serve.answered > 0);
        assert!(report.serve.updates_applied > 0);
        assert!(report.serve.commits > 0);
        assert!(report.queries_per_sec() > 0.0);
        assert!(report.serve.latency.count() == report.serve.answered);
        assert_eq!(report.serve.lag_commits.count(), report.serve.answered);
    }

    #[test]
    fn open_loop_hits_its_schedule_and_reports_lag() {
        let pool = Pool::new(1);
        let g = component_grid(120, 4, 2);
        let store = Arc::new(ShardedStore::new(&pool, &g, 2).unwrap());
        let daemon = Daemon::spawn(Arc::clone(&store), ServeConfig::default());
        let report = run_workload(
            daemon,
            &WorkloadConfig {
                profile: Profile::ReadHeavy,
                mode: Mode::Open { rate: 2_000.0 },
                duration: Duration::from_millis(200),
                parts: 4,
                seed: 9,
            },
        );
        assert!(report.serve.writer_error.is_none());
        let offered = report.offered_queries + report.offered_updates;
        // The schedule calls for rate × duration arrivals; allow slack
        // for coarse sleeps on a loaded box, but the driver must not
        // silently drop scheduled work.
        assert!(offered >= 300, "only {offered} of ~400 scheduled ops ran");
        assert_eq!(report.serve.answered, report.offered_queries);
        // p999 ≥ p99 ≥ p50 structurally.
        let h = &report.serve.latency;
        assert!(h.quantile(0.999) >= h.quantile(0.99));
        assert!(h.quantile(0.99) >= h.quantile(0.5));
    }
}
