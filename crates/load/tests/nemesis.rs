//! Nemesis determinism: the same seed must replay the identical fault
//! schedule, byte for byte — both in the rendered description and in the
//! actual sequence of faults [`fire`] hands to the applier. A chaos run
//! that cannot be replayed exactly cannot be debugged at all.

use faucets_load::nemesis::{fire, FaultKind, NemesisConfig, NemesisPlan};

/// Render the faults exactly as an applier would experience them.
fn replay(plan: &NemesisPlan) -> String {
    let mut log = String::new();
    fire(plan, |kind: &FaultKind| {
        log.push_str(&format!("{kind:?}\n"));
    });
    log
}

#[test]
fn same_seed_replays_byte_for_byte() {
    // A short window so fire()'s real-time walk stays test-sized; the
    // schedule content is what is under test, not the pacing.
    let cfg = NemesisConfig {
        events: 8,
        min_kills: 2,
        window_ms: 60,
        replicas: 3,
        ..NemesisConfig::default()
    };
    let a = NemesisPlan::generate(0x0FA0_CE75, &cfg);
    let b = NemesisPlan::generate(0x0FA0_CE75, &cfg);

    // The plans are equal as data and as rendered bytes...
    assert_eq!(a, b);
    assert_eq!(a.description(), b.description());
    assert_eq!(
        a.description().as_bytes(),
        b.description().as_bytes(),
        "description must be byte-for-byte stable"
    );

    // ...and replaying them fires the identical fault sequence.
    let run1 = replay(&a);
    let run2 = replay(&b);
    assert_eq!(run1.as_bytes(), run2.as_bytes());

    // The replayed order is the described order: every event line in the
    // description corresponds positionally to a fired fault.
    assert_eq!(
        a.description().lines().count() - 1,
        run1.lines().count(),
        "one description line per fired fault (plus the header)"
    );
}

#[test]
fn different_seeds_diverge() {
    let cfg = NemesisConfig {
        events: 8,
        window_ms: 60,
        ..NemesisConfig::default()
    };
    let a = NemesisPlan::generate(1, &cfg);
    let b = NemesisPlan::generate(2, &cfg);
    assert_ne!(
        a.description(),
        b.description(),
        "distinct seeds should explore distinct schedules"
    );
}

#[test]
fn generation_is_pure() {
    // generate() must not consult ambient state (time, thread identity):
    // generating from another thread yields the same bytes.
    let cfg = NemesisConfig::default();
    let here = NemesisPlan::generate(99, &cfg).description();
    let there = std::thread::spawn(move || NemesisPlan::generate(99, &cfg).description())
        .join()
        .unwrap();
    assert_eq!(here.as_bytes(), there.as_bytes());
}
