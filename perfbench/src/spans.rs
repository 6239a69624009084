//! In-memory spans recorded by the benchmark around its calls into the
//! library (nothing is traced inside the library itself).
//!
//! A span has a name, a start and end offset from the tracer's creation,
//! and the span that was open when it began. Spans are kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer or operation name.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-name aggregate of the recorded spans.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus time covered by child spans).
    pub self_ns: u64,
}

/// Span recorder; a disabled tracer records nothing and costs one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on` is set.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order (a bug in the benchmark).
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let span = self.begin(name);
        let out = f(self);
        self.end(span);
        out
    }

    /// Self time of each span: its duration minus the union of its
    /// children's intervals (clipped to it).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals, sorted by name.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                json_string(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    fn sample() -> Tracer {
        let mut t = Tracer::new(true);
        t.scope("run", |t| {
            t.scope("setup", |t| {
                spin(200);
                t.scope("build", |_| spin(300));
            });
            for _ in 0..3 {
                t.scope("call", |_| spin(100));
            }
            spin(100);
        });
        t
    }

    #[test]
    fn children_nest_inside_their_parent() {
        let t = sample();
        let spans = &t.spans;
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        for s in spans {
            assert!(s.start_ns <= s.end_ns, "{s:?}");
            if let Some(p) = s.parent {
                let p = &spans[p];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{s:?} in {p:?}"
                );
            }
        }
    }

    #[test]
    fn self_time_is_non_negative_and_sums_to_the_root() {
        let t = sample();
        let own = t.self_ns();
        let root = &t.spans[0];
        assert_eq!(own.iter().sum::<u64>(), root.end_ns - root.start_ns);
        // Leaves own their whole duration; parents own strictly less.
        assert_eq!(own[2], t.spans[2].end_ns - t.spans[2].start_ns);
        assert!(own[1] < t.spans[1].end_ns - t.spans[1].start_ns);
        let totals = t.totals();
        assert_eq!(totals["call"].count, 3);
        assert!(totals.values().all(|x| x.self_ns <= x.total_ns));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "p".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a".into(),
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "b".into(),
                start_ns: 40,
                end_ns: 150,
                parent: Some(0),
            },
        ];
        assert_eq!(t.self_ns(), vec![10, 50, 110]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.scope("run", |t| t.scope("inner", |_| 7));
        assert_eq!(x, 7);
        assert!(t.spans.is_empty());
        assert_eq!(t.to_json(), "[\n]");
    }

    #[test]
    fn json_escapes_names() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
