//! Regression tests pinning the paper's special-case liveness rules
//! at every worker count.
//!
//! The dangerous failure mode of a parallel analysis is a worker
//! skipping or double-applying one of Figure 2's special cases (volatile
//! writes, `delete`/`free` exemption, unsafe-cast closure, union
//! propagation). Each case is asserted at 1, 2, and 8 workers; the
//! sources spread the relevant statements over several functions. The
//! tests were written against a sharded liveness scan that no longer
//! exists — today only summary extraction shards, and only from 256
//! functions up — so they pin that `--jobs` changes nothing.

use dead_data_members::analysis::LiveReason;
use dead_data_members::prelude::*;

fn liveness(source: &str, jobs: usize) -> (Program, Liveness) {
    let run = AnalysisPipeline::with_config_telemetry(
        source,
        AnalysisConfig::default(),
        Algorithm::Rta,
        jobs,
        &Telemetry::disabled(),
    )
    .expect("pipeline");
    let liveness = run.liveness().clone();
    let tu = parse(source).expect("parse");
    (Program::build(&tu).expect("sema"), liveness)
}

fn member(p: &Program, class: &str, name: &str) -> MemberRef {
    let cid = p.class_by_name(class).unwrap();
    let idx = p
        .class(cid)
        .members
        .iter()
        .position(|m| m.name == name)
        .unwrap();
    MemberRef::new(cid, idx)
}

const JOBS: [usize; 3] = [1, 2, 8];

#[test]
fn volatile_write_only_member_stays_live_under_sharding() {
    // Padding functions push the volatile write into a late shard.
    let src = "class Dev { public: volatile int ctrl; int scratch; };\n\
               int pad1() { return 1; }\n\
               int pad2() { return pad1() + 1; }\n\
               int pad3() { return pad2() + 1; }\n\
               int pad4() { return pad3() + 1; }\n\
               void poke(Dev* d) { d->ctrl = 1; d->scratch = 2; }\n\
               int main() { Dev d; poke(&d); return pad4(); }";
    for jobs in JOBS {
        let (p, l) = liveness(src, jobs);
        assert!(
            l.is_live(member(&p, "Dev", "ctrl")),
            "jobs={jobs}: volatile write-only member must stay live"
        );
        assert_eq!(
            l.reason(member(&p, "Dev", "ctrl")),
            Some(LiveReason::VolatileWrite),
            "jobs={jobs}"
        );
        assert!(
            l.is_dead(member(&p, "Dev", "scratch")),
            "jobs={jobs}: plain write-only member must stay dead"
        );
    }
}

#[test]
fn delete_and_free_operands_do_not_liven_under_sharding() {
    let src = "class Node { public: int* heap_buf; Node* child; int used; };\n\
               int pad1() { return 1; }\n\
               int pad2() { return pad1() + 1; }\n\
               void reap(Node* n) { delete n->child; free(n->heap_buf); }\n\
               int touch(Node* n) { return n->used; }\n\
               int main() { Node n; reap(&n); return touch(&n) + pad2(); }";
    for jobs in JOBS {
        let (p, l) = liveness(src, jobs);
        assert!(
            l.is_dead(member(&p, "Node", "child")),
            "jobs={jobs}: delete operand must not liven"
        );
        assert!(
            l.is_dead(member(&p, "Node", "heap_buf")),
            "jobs={jobs}: free operand must not liven"
        );
        assert!(l.is_live(member(&p, "Node", "used")), "jobs={jobs}");
    }
}

#[test]
fn unsafe_cast_livens_all_contained_members_under_sharding() {
    // The reinterpret_cast sits in its own function; the contained-member
    // closure (value members + bases) must fire whichever shard walks it.
    let src = "class Inner { public: int deep; };\n\
               class Base { public: int inherited; };\n\
               class Outer : public Base { public: Inner inner; int own; };\n\
               int pad1() { return 1; }\n\
               int pad2() { return pad1() + 1; }\n\
               int pad3() { return pad2() + 1; }\n\
               long smuggle(Outer* o) { return reinterpret_cast<long>(o); }\n\
               int main() { Outer* o = new Outer(); return (int)smuggle(o) + pad3(); }";
    for jobs in JOBS {
        let (p, l) = liveness(src, jobs);
        for (class, name) in [
            ("Outer", "own"),
            ("Outer", "inner"),
            ("Inner", "deep"),
            ("Base", "inherited"),
        ] {
            assert!(
                l.is_live(member(&p, class, name)),
                "jobs={jobs}: unsafe cast must liven {class}::{name}"
            );
            assert_eq!(
                l.reason(member(&p, class, name)),
                Some(LiveReason::UnsafeCast),
                "jobs={jobs}: {class}::{name}"
            );
        }
    }
}

#[test]
fn union_propagation_reaches_fixpoint_under_sharding() {
    // The union rule runs after the merge; a live member read in one
    // shard must liven union siblings discovered from another shard's
    // contribution, transitively through nested unions.
    let src = "union Inner { short s; char c; };\n\
               union Outer { int i; Inner nested; };\n\
               int pad1() { return 1; }\n\
               int pad2() { return pad1() + 1; }\n\
               int peek(Outer* u) { return u->i; }\n\
               int main() { Outer u; return peek(&u) + pad2(); }";
    for jobs in JOBS {
        let (p, l) = liveness(src, jobs);
        for (class, name) in [("Outer", "i"), ("Outer", "nested"), ("Inner", "s"), ("Inner", "c")]
        {
            assert!(
                l.is_live(member(&p, class, name)),
                "jobs={jobs}: union propagation must liven {class}::{name}"
            );
        }
    }
}

#[test]
fn reason_tie_breaks_match_the_sequential_scan_order() {
    // One member is read in an early function and swept into an unsafe
    // cast's closure in a later one. First mark wins sequentially; the
    // ordered shard merge must preserve that exact reason.
    let src = "class A { public: int m; int other; };\n\
               int early(A* a) { return a->m; }\n\
               int pad1() { return 1; }\n\
               int pad2() { return pad1() + 1; }\n\
               long late(A* a) { return reinterpret_cast<long>(a); }\n\
               int main() { A a; return early(&a) + (int)late(&a) + pad2(); }";
    let (p, sequential) = liveness(src, 1);
    let seq_reason = sequential.reason(member(&p, "A", "m"));
    for jobs in JOBS {
        let (p, l) = liveness(src, jobs);
        assert_eq!(
            l.reason(member(&p, "A", "m")),
            seq_reason,
            "jobs={jobs}: reason tie-break diverged from sequential"
        );
        assert_eq!(
            l.reason(member(&p, "A", "other")),
            Some(LiveReason::UnsafeCast),
            "jobs={jobs}"
        );
    }
}
