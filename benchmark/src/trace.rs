//! Spans recorded by the load thread around its calls into the system.
//!
//! The program under test carries no stage stamps yet (ROADMAP item 3),
//! so every span here is taken from outside: the load thread times each
//! call into a layer's public function, and one *flight* span covers an
//! event from the moment it was due to the moment a subscriber drained
//! it. Every call is timed and counted exactly ([`Tracer::totals`]);
//! one call in [`SAMPLE`] per name is also kept as a span record, and
//! the deliveries of a sampled publish become its child flight spans.
//! Records stay in memory and are written as JSON lines when the
//! workload ends.

use std::io::{BufWriter, Write};
use std::path::Path;

/// One call in this many is kept as a span record.
pub const SAMPLE: u64 = 64;
/// Records kept per workload; later ones are counted in `dropped`.
const MAX_RECORDS: usize = 100_000;
/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// The layer boundaries a span can sit on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Name {
    Phase,
    Publish,
    Drain,
    Attach,
    Subscribe,
    Unsubscribe,
    Detach,
    Quiesce,
    Converge,
    SimRunNarada,
    SimRunPoint,
    Flight,
}

/// Every name, in `repr` order.
const ALL: [Name; 12] = [
    Name::Phase,
    Name::Publish,
    Name::Drain,
    Name::Attach,
    Name::Subscribe,
    Name::Unsubscribe,
    Name::Detach,
    Name::Quiesce,
    Name::Converge,
    Name::SimRunNarada,
    Name::SimRunPoint,
    Name::Flight,
];

impl Name {
    /// The span's name in the trace file; `layer` is `sharded` or
    /// `cluster` for calls into the live system.
    fn label(self, layer: &str) -> String {
        match self {
            Name::Phase => "phase".into(),
            Name::Publish => format!("{layer}.publish"),
            Name::Drain => format!("{layer}.drain"),
            Name::Attach => format!("{layer}.attach"),
            Name::Subscribe => format!("{layer}.subscribe"),
            Name::Unsubscribe => format!("{layer}.unsubscribe"),
            Name::Detach => format!("{layer}.detach"),
            Name::Quiesce => format!("{layer}.quiesce"),
            Name::Converge => "cluster.converge".into(),
            Name::SimRunNarada => "sim.run_narada".into(),
            Name::SimRunPoint => "sim.run_point".into(),
            Name::Flight => "flight".into(),
        }
    }
}

struct Record {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Shared by the spans of one request: `source << 32 | seq` for a
    /// publish and its flights, the phase number for everything else.
    id: u64,
}

/// Exact count and busy time of one span name.
#[derive(Clone, Copy, Default)]
pub struct Total {
    pub calls: u64,
    pub busy_ns: u64,
}

impl Total {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64
        }
    }
}

/// In-memory span store. While `on` is false it records and counts
/// nothing, and call sites skip their clock reads.
pub struct Tracer {
    pub on: bool,
    records: Vec<Record>,
    totals: [Total; ALL.len()],
    dropped: u64,
    /// The open phase span every call span hangs under.
    phase: u32,
    /// Time inside call spans while a phase was open.
    phase_call_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            records: Vec::new(),
            totals: [Total::default(); ALL.len()],
            dropped: 0,
            phase: NO_PARENT,
            phase_call_ns: 0,
        }
    }

    /// Counts one call and, if `keep`, stores its span; returns the
    /// record's index for use as a parent.
    #[inline]
    pub fn span(&mut self, name: Name, start_ns: u64, end_ns: u64, id: u64, keep: bool) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let busy = end_ns.saturating_sub(start_ns);
        let total = &mut self.totals[name as usize];
        total.calls += 1;
        total.busy_ns += busy;
        if self.phase != NO_PARENT {
            self.phase_call_ns += busy;
        }
        if keep {
            self.push(name, start_ns, end_ns, self.phase, id)
        } else {
            NO_PARENT
        }
    }

    /// Stores a flight span under the publish span that caused it.
    #[inline]
    pub fn flight(&mut self, due_ns: u64, drained_ns: u64, parent: u32, id: u64) {
        let total = &mut self.totals[Name::Flight as usize];
        total.calls += 1;
        total.busy_ns += drained_ns.saturating_sub(due_ns);
        self.push(Name::Flight, due_ns, drained_ns, parent, id);
    }

    fn push(&mut self, name: Name, start_ns: u64, end_ns: u64, parent: u32, id: u64) -> u32 {
        if self.records.len() >= MAX_RECORDS {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.records.push(Record {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        (self.records.len() - 1) as u32
    }

    /// Opens a phase: a root span whose end is set by [`Tracer::end_phase`].
    pub fn begin_phase(&mut self, start_ns: u64, number: u64) {
        if self.on {
            self.phase = self.push(Name::Phase, start_ns, start_ns, NO_PARENT, number);
        }
    }

    pub fn end_phase(&mut self, end_ns: u64) {
        if let Some(record) = self.records.get_mut(self.phase as usize) {
            record.end_ns = end_ns;
            let total = &mut self.totals[Name::Phase as usize];
            total.calls += 1;
            total.busy_ns += end_ns.saturating_sub(record.start_ns);
        }
        self.phase = NO_PARENT;
    }

    pub fn total(&self, name: Name) -> Total {
        self.totals[name as usize]
    }

    /// Share of all phase time the load loop spent outside every call
    /// into the system: the phases' self time over their duration.
    pub fn self_ratio(&self) -> f64 {
        let phase = self.total(Name::Phase).busy_ns;
        if phase == 0 {
            return 0.0;
        }
        1.0 - self.phase_call_ns.min(phase) as f64 / phase as f64
    }

    /// Writes one JSON object per line: a header with the exact totals,
    /// then every kept span.
    pub fn write_jsonl(&self, path: &Path, layer: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"kind\":\"header\",\"sample_one_in\":{SAMPLE},\"spans\":{},\"dropped\":{},\"totals\":{{",
            self.records.len(),
            self.dropped
        )?;
        let mut first = true;
        for name in ALL {
            let total = self.total(name);
            if total.calls == 0 {
                continue;
            }
            if !first {
                write!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "\"{}\":{{\"calls\":{},\"busy_ns\":{}}}",
                name.label(layer),
                total.calls,
                total.busy_ns
            )?;
        }
        writeln!(out, "}}}}")?;
        for (index, r) in self.records.iter().enumerate() {
            write!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{}",
                r.name.label(layer),
                r.start_ns,
                r.end_ns,
                r.id
            )?;
            if r.parent != NO_PARENT {
                write!(out, ",\"parent\":{}", r.parent)?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}
