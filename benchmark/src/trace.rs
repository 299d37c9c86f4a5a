//! Harness spans: name, start, end and parent of every call the benchmark
//! makes into a layer, kept in memory and written out when the traced
//! repetition ends. Times are nanoseconds since the worker started.
//!
//! A span's self time is its duration minus the part its children cover.

use std::io::Write;

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize, end_ns: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// A finished span with no children, under the innermost open one.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.open(name, start_ns);
        self.close(id, end_ns);
    }

    /// Write `benchmark/out/trace_<workload>.json` under the current
    /// directory (the checkout root; `run.sh` changes into it).
    pub fn write(&self, workload: &str) -> std::io::Result<()> {
        let dir = std::path::Path::new("benchmark").join("out");
        std::fs::create_dir_all(&dir)?;
        let file = std::fs::File::create(dir.join(format!("trace_{workload}.json")))?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}{comma}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
