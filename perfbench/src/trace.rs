//! Spans recorded by the benchmark around its calls into each layer
//! (crate). Kept in memory during the run and written out at its end;
//! a disabled tracer records nothing.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id, for spans belonging to one served request.
    pub req: Option<u64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval; returns its id (0 when disabled).
    pub fn record(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<u64>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("tracer poisoned");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            req,
        });
        id
    }

    /// Runs `f` inside a span named `name`. The span's id is reserved
    /// before `f` runs and passed to it, so children recorded inside `f`
    /// can name it as their parent.
    pub fn span<T>(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start = Instant::now();
        let id = self.record(name, parent, None, start, start);
        let out = f(Some(id));
        let end = self.ns(Instant::now());
        self.spans.lock().expect("tracer poisoned")[id as usize - 1].end_ns = end;
        out
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time (seconds) of every span called `name`: its duration
    /// minus the part of it its children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 * 1e-9
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("tracer poisoned").iter() {
            let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.req)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |k| t0 + Duration::from_millis(k);
        let root = t.record("root", None, None, ms(0), ms(100));
        t.record("a", Some(root), None, ms(10), ms(30));
        t.record("b", Some(root), None, ms(20), ms(50)); // overlaps a
        t.record("c", Some(root), None, ms(60), ms(70));
        let own = t.self_times("root");
        assert_eq!(own.len(), 1);
        assert!((own[0] - 0.050).abs() < 1e-9, "{own:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
    }
}
