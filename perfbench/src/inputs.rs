//! The benchmark's inputs, all derived from `--seed`, and the
//! references their outputs are checked against.
//!
//! Every reference here was produced outside the timed runs: the paper
//! ledger is hand-kept in EXPERIMENTS.md, the scale pins were recorded
//! once and cross-checked against the independent `--engine walk`
//! reference, and the project's expected dead set follows from how the
//! project is generated.

use ddm_benchmarks::generator::{generate_scale, ScaleConfig};
use ddm_benchmarks::rng::Rng;
use std::fmt::Write as _;

/// Input size: `Full` is what the benchmark measures; `Tiny` is the
/// smoke test's size, which runs every oracle and metric in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

// ---------------------------------------------------------------- scale

/// The one-shot scale TU: 32,769 functions, 3.6 MB at full size — large
/// enough that parse dominates and sharded rounds engage.
pub fn scale_config(size: Size) -> ScaleConfig {
    match size {
        Size::Full => ScaleConfig {
            chains: 256,
            depth: 16,
            methods_per_class: 4,
            members_per_class: 3,
            rungs: 64,
        },
        Size::Tiny => ScaleConfig {
            chains: 4,
            depth: 4,
            methods_per_class: 2,
            members_per_class: 3,
            rungs: 8,
        },
    }
}

/// Generator seeds the scale workload draws from (`--seed` modulo the
/// pool size). Each has pinned outputs, so any seed can be checked.
pub const SCALE_POOL: u64 = 8;

/// Pinned one-shot outputs of one generated scale TU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalePin {
    /// FNV-1a-64 of the full report (`ddm <file>` stdout).
    pub report_fnv: u64,
    /// Dead members in used classes (the report's first line).
    pub dead: usize,
    /// Data members in used classes.
    pub members: usize,
    /// FNV-1a-64 of `ddm <file> --explain <member>` stdout.
    pub explain_fnv: u64,
}

/// Pinned outputs per pool seed, recorded with the summary engine and
/// confirmed byte-identical with `--engine walk` at `--jobs 1`.
pub fn scale_pin(size: Size, gen_seed: u64) -> ScalePin {
    let table: &[(u64, usize, usize, u64)] = match size {
        Size::Full => &SCALE_PINS_FULL,
        Size::Tiny => &SCALE_PINS_TINY,
    };
    let (report_fnv, dead, members, explain_fnv) = table[gen_seed as usize];
    ScalePin {
        report_fnv,
        dead,
        members,
        explain_fnv,
    }
}

const SCALE_PINS_FULL: [(u64, usize, usize, u64); SCALE_POOL as usize] = [
    (0x46548c76eb9a73e9, 68, 11520, 0xfec88abb038675c7),
    (0x24246d53ec7c7a6b, 87, 11520, 0xd173e8ed9a7f6187),
    (0xa2c32231972d5d0c, 70, 11520, 0x8aec093d47e77995),
    (0x8145f3a734601daf, 66, 11520, 0xa6e4a24fd284b8fe),
    (0x28e0b8ec85319dfc, 85, 11520, 0x5b125492f4c34087),
    (0x6396b7079e32e0ba, 83, 11520, 0xe491ab474223e3be),
    (0xdd3865ad838c02ac, 82, 11520, 0xcb8c51bcc828ce79),
    (0xee4eed899beed21b, 68, 11520, 0x0532e0d1d320a9f3),
];

const SCALE_PINS_TINY: [(u64, usize, usize, u64); SCALE_POOL as usize] = [
    (0x82556f8dae59939e, 3, 36, 0xdb0fe50bc2b09774),
    (0x9782dbf299e00d53, 1, 36, 0x4c0624b480337434),
    (0xa6035ddc4405d6ac, 4, 36, 0xa357d59611c1a2de),
    (0xd91b2ca8f36a79cd, 1, 36, 0xd2b30e3b5cb1eadb),
    (0x126d98f8cf03542a, 5, 36, 0xa20e2ef60622996a),
    (0xf52d42a4ff406d76, 3, 36, 0x4c0624b480337434),
    (0x6400dd4ba8a59d5d, 1, 36, 0x71917e40b1c8def7),
    (0x824cab1c139dbcec, 4, 36, 0xe34b930915195f90),
];

/// The generated scale TU for `seed`, its pool seed, and the member the
/// query step explains.
pub fn scale_input(size: Size, seed: u64) -> (u64, String, String) {
    let config = scale_config(size);
    let gen_seed = seed % SCALE_POOL;
    let source = generate_scale(&config, gen_seed);
    let mut rng = Rng::seed_from_u64(gen_seed ^ 0x5eed);
    let c = rng.gen_range(0..config.chains);
    let d = rng.gen_range(0..config.depth);
    let j = rng.gen_range(0..config.members_per_class);
    (gen_seed, source, format!("S{c}_{d}::v{c}_{d}_{j}"))
}

// ---------------------------------------------------------------- paper

/// One row of the EXPERIMENTS.md ledger: Table 1 / Figure 3 counts and
/// Table 2 byte counts.
#[derive(Debug, Clone, Copy)]
pub struct LedgerRow {
    pub name: &'static str,
    pub used_classes: usize,
    pub members: usize,
    pub dead: usize,
    pub object_space: u64,
    pub dead_space: u64,
    pub high_water_mark: u64,
    pub high_water_mark_without_dead: u64,
}

const fn row(
    name: &'static str,
    used_classes: usize,
    members: usize,
    dead: usize,
    bytes: [u64; 4],
) -> LedgerRow {
    LedgerRow {
        name,
        used_classes,
        members,
        dead,
        object_space: bytes[0],
        dead_space: bytes[1],
        high_water_mark: bytes[2],
        high_water_mark_without_dead: bytes[3],
    }
}

/// The ledger in paper order (dead counts are Figure 3's percentages
/// times Table 1's member counts).
pub const LEDGER: [LedgerRow; 11] = [
    row("jikes", 10, 36, 3, [63_052, 5_484, 28_912, 23_544]),
    row("idl", 10, 29, 4, [38_396, 292, 38_396, 38_104]),
    row("npic", 6, 30, 4, [41_672, 1_452, 6_056, 5_876]),
    row("lcom", 8, 18, 2, [43_612, 2_928, 23_452, 20_524]),
    row("taldict", 7, 33, 9, [3_252, 36, 2_228, 2_196]),
    row("ixx", 9, 30, 2, [15_060, 832, 10_020, 9_524]),
    row("simulate", 7, 31, 8, [50_360, 36, 12_296, 12_260]),
    row("sched", 9, 50, 2, [42_372, 4_096, 42_372, 38_276]),
    row("hotwire", 9, 32, 6, [5_344, 124, 5_344, 5_220]),
    row("deltablue", 12, 23, 0, [10_928, 0, 7_596, 7_596]),
    row("richards", 8, 25, 0, [532, 0, 532, 532]),
];

// -------------------------------------------------------------- project

/// The project shape: bench_incremental's generator at 256 TUs — a
/// shared 8-class header chain repeated in every TU, 12 free functions
/// per non-driver TU, all called from the driver TU.
#[derive(Debug, Clone, Copy)]
pub struct ProjectShape {
    pub tus: usize,
    pub classes: usize,
    pub fns_per_tu: usize,
}

pub fn project_shape(size: Size) -> ProjectShape {
    match size {
        Size::Full => ProjectShape {
            tus: 256,
            classes: 8,
            fns_per_tu: 12,
        },
        Size::Tiny => ProjectShape {
            tus: 8,
            classes: 4,
            fns_per_tu: 4,
        },
    }
}

/// Every `ALL_EVERY`-th step of the edit script edits every non-driver
/// TU; the others edit one seed-chosen TU. The split is illustrative,
/// not measured from any client: most edits touch one TU, and a fixed
/// minority touch them all.
pub const ALL_EVERY: usize = 16;

/// One step of the edit script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Toggle one non-driver TU.
    One(usize),
    /// Toggle every non-driver TU.
    All,
}

/// The generated project and its edit state. An edit swaps a non-driver
/// TU between two fixed texts of equal length: the generated one, whose
/// first function reads `o->m0`, and the variant, which reads `o->d0`
/// there instead. Nothing is ever appended, so file sizes, the function
/// count, and the set of cache entries stay bounded across a run.
pub struct Project {
    shape: ProjectShape,
    header: String,
    reads_d0: Vec<bool>,
    /// Draws the edit script; queries draw from their own stream, so
    /// the script is the same however many queries run between edits.
    edit_rng: Rng,
    query_rng: Rng,
    step: usize,
}

impl Project {
    pub fn new(size: Size, seed: u64) -> Project {
        let shape = project_shape(size);
        Project {
            shape,
            header: project_header(shape.classes),
            reads_d0: vec![false; shape.tus],
            edit_rng: Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            query_rng: Rng::seed_from_u64(seed ^ 0x51_7cc1_b727_220a),
            step: 0,
        }
    }

    pub fn tus(&self) -> usize {
        self.shape.tus
    }

    pub fn file_name(t: usize) -> String {
        if t == 0 {
            "driver.cpp".to_string()
        } else {
            format!("tu{t}.cpp")
        }
    }

    /// The current text of TU `t`.
    pub fn text(&self, t: usize) -> String {
        let mut s = self.header.clone();
        let ProjectShape {
            tus, fns_per_tu, ..
        } = self.shape;
        if t == 0 {
            for u in 1..tus {
                for f in 0..fns_per_tu {
                    let _ = writeln!(s, "int tu{u}_f{f}(C0* o);");
                }
            }
            let top = self.shape.classes - 1;
            let _ = writeln!(
                s,
                "int main() {{\n    C0* o = new C{top}(5);\n    int r = 0;"
            );
            for u in 1..tus {
                for f in 0..fns_per_tu {
                    let _ = writeln!(s, "    r = r + tu{u}_f{f}(o);");
                }
            }
            let _ = writeln!(s, "    delete o;\n    return r;\n}}");
            return s;
        }
        for f in 0..fns_per_tu {
            let read = if f == 0 && self.reads_d0[t] {
                "d0"
            } else {
                "m0"
            };
            let _ = writeln!(
                s,
                "int tu{t}_f{f}(C0* o) {{ o->d0 = {f}; return o->get() + o->{read} + {f}; }}"
            );
        }
        s
    }

    /// Every TU as `(file name, text)`, in input order.
    pub fn sources(&self) -> Vec<(String, String)> {
        (0..self.shape.tus)
            .map(|t| (Self::file_name(t), self.text(t)))
            .collect()
    }

    /// Draws the next step of the seeded edit script, applies it to the
    /// edit state, and returns the TUs it changed.
    pub fn next_edit(&mut self) -> (Edit, Vec<usize>) {
        self.step += 1;
        let edit = if self.step.is_multiple_of(ALL_EVERY) {
            Edit::All
        } else {
            Edit::One(self.edit_rng.gen_range(1..self.shape.tus))
        };
        let changed: Vec<usize> = match edit {
            Edit::One(t) => vec![t],
            Edit::All => (1..self.shape.tus).collect(),
        };
        for &t in &changed {
            self.reads_d0[t] = !self.reads_d0[t];
        }
        (edit, changed)
    }

    /// The dead members the report must list, as `Class::member`: every
    /// class's write-only `d<i>`, except `C0::d0` while any TU reads it.
    pub fn expected_dead(&self) -> Vec<String> {
        let d0_read = self.reads_d0.iter().any(|&r| r);
        (0..self.shape.classes)
            .filter(|&c| c != 0 || !d0_read)
            .map(|c| format!("C{c}::d{c}"))
            .collect()
    }

    /// The member an explain query asks about: a seed-drawn class's live
    /// `m<i>` or, for `dead`, its write-only `d<i>` (from a class other
    /// than `C0`, whose `d0` the edits toggle). Live and dead explains
    /// cost very differently (a live one renders its call chain), so
    /// the serve loop keeps separate samples for each.
    pub fn query_member(&mut self, dead: bool) -> String {
        let classes = self.shape.classes;
        if dead {
            let c = 1 + self.query_rng.gen_range(0..classes - 1);
            format!("C{c}::d{c}")
        } else {
            let c = self.query_rng.gen_range(0..classes);
            format!("C{c}::m{c}")
        }
    }

    /// Whether `spec` (`C<i>::m<i>` or `C<i>::d<i>`) is dead right now.
    pub fn is_dead(&self, spec: &str) -> bool {
        self.expected_dead().iter().any(|d| d == spec)
    }
}

/// The shared header: a single-inheritance chain where every class adds
/// one live member (read by `get`) and one dead member (only written).
fn project_header(classes: usize) -> String {
    let mut h = String::new();
    for c in 0..classes {
        let base = if c == 0 {
            String::new()
        } else {
            format!(" : public C{}", c - 1)
        };
        let init = if c == 0 {
            format!("m{c}(v), d{c}(0)")
        } else {
            format!("C{}(v), m{c}(v), d{c}(0)", c - 1)
        };
        let sum: Vec<String> = (0..=c).map(|i| format!("m{i}")).collect();
        let _ = writeln!(
            h,
            "class C{c}{base} {{\npublic:\n    C{c}(int v) : {init} {{ }}\n    \
             virtual ~C{c}() {{ }}\n    virtual int get() {{ return {}; }}\n    \
             int m{c};\n    int d{c};\n}};",
            sum.join(" + ")
        );
    }
    h
}

/// Every member a rendered report lists, as `(Class::member, dead)`, in
/// report order.
pub fn report_members(report: &str) -> Vec<(String, bool)> {
    let mut class = "";
    let mut members = Vec::new();
    for line in report.lines() {
        if let Some(name) = line.strip_prefix("  ").and_then(|l| l.strip_suffix(':')) {
            if !name.starts_with(' ') {
                class = name;
                continue;
            }
        }
        let entry = line.trim_start();
        if let Some(member) = entry.strip_prefix("DEAD ") {
            members.push((format!("{class}::{member}"), true));
        } else if let Some(rest) = entry.strip_prefix("live ") {
            let member = rest.split_whitespace().next().unwrap_or(rest);
            members.push((format!("{class}::{member}"), false));
        }
    }
    members
}

/// The dead members a rendered report lists, as `Class::member`.
pub fn report_dead_members(report: &str) -> Vec<String> {
    report_members(report)
        .into_iter()
        .filter_map(|(m, dead)| dead.then_some(m))
        .collect()
}

/// Whether an `--explain` text's verdict line says DEAD.
pub fn explain_says_dead(text: &str, spec: &str) -> Result<bool, String> {
    let verdict = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix(spec))
        .and_then(|l| l.strip_prefix(": "))
        .ok_or_else(|| format!("explain output for {spec} has no verdict line"))?;
    Ok(verdict.starts_with("DEAD"))
}

/// `(dead, members)` from a report's first line,
/// `dead data members: D/M in used classes (P%)`.
pub fn report_counts(report: &str) -> Option<(usize, usize)> {
    let rest = report.lines().next()?.strip_prefix("dead data members: ")?;
    let (dead, rest) = rest.split_once('/')?;
    let members = rest.split_whitespace().next()?;
    Some((dead.parse().ok()?, members.parse().ok()?))
}
