//! Self-tests of the stand-in crates under `vendor/`, against the wire
//! format the published `serde_json` is documented to produce for the
//! repository's own types.

use faucets_core::auth::SessionToken;
use faucets_core::ids::{ClusterId, UserId};
use faucets_net::proto::{Envelope, Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap()
}

#[test]
fn enums_are_externally_tagged_and_options_elide() {
    assert_eq!(json(&Response::Ok), r#""Ok""#);
    assert_eq!(json(&Response::Error("x".into())), r#"{"Error":"x"}"#);
    assert_eq!(json(&Response::Servers(vec![])), r#"{"Servers":[]}"#);
    let req = Request::VerifyToken {
        token: SessionToken("abc".into()),
    };
    assert_eq!(json(&req), r#"{"VerifyToken":{"token":"abc"}}"#);
    assert_eq!(
        json(&Response::Verified { user: UserId(7) }),
        r#"{"Verified":{"user":7}}"#
    );
    // `skip_serializing_if` leaves unset deadline and id off the wire;
    // a plain `Option` stays as null.
    let env = Envelope {
        ctx: None,
        deadline_ms: None,
        request_id: None,
        msg: Response::Ok,
    };
    assert_eq!(json(&env), r#"{"ctx":null,"msg":"Ok"}"#);
    let env = Envelope {
        request_id: Some(9),
        ..env
    };
    assert_eq!(json(&env), r#"{"ctx":null,"request_id":9,"msg":"Ok"}"#);
}

#[test]
fn decoding_tolerates_what_serde_tolerates() {
    // Whitespace, unknown fields, absent optional and defaulted fields,
    // fields in any order.
    let env: Envelope<Request> = serde_json::from_str(
        r#" { "msg" : {"VerifyToken": {"token": "t", "extra": [1, {"a": null}]}},
              "future_field": {"x": [true, false]}, "ctx": null } "#,
    )
    .unwrap();
    assert_eq!(env.deadline_ms, None);
    assert_eq!(
        env.msg,
        Request::VerifyToken {
            token: SessionToken("t".into())
        }
    );
    // … and rejects what it rejects, with an error and never a panic.
    for bad in [
        "",
        "{",
        r#"{"ctx":null}"#,
        r#"{"ctx":null,"msg":"NoSuchVariant"}"#,
        r#"{"ctx":null,"msg":"Ok"} trailing"#,
        r#"{"ctx":null,"msg":{"Error":7}}"#,
        r#"{"ctx":null,"msg":"Ok","request_id":-1}"#,
        r#"{"ctx":null,"msg":"Ok","request_id":1.5}"#,
        "{\"ctx\":null,\"msg\":{\"Error\":\"raw \u{1} control\"}}",
    ] {
        assert!(
            serde_json::from_str::<Envelope<Response>>(bad).is_err(),
            "{bad:?} must not parse"
        );
    }
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<Vec<Vec<u8>>>(&deep).is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Kitchen {
    text: String,
    floats: Vec<f64>,
    ints: (i64, u64, u8),
    by_cluster: BTreeMap<ClusterId, Option<bool>>,
    #[serde(default)]
    defaulted: u32,
    unit: (),
    bytes: Vec<u8>,
    nested: Vec<(String, Vec<u8>)>,
}

#[test]
fn values_round_trip_exactly() {
    let v = Kitchen {
        text: "quote \" slash \\ newline \n tab \t nul \u{0} snow \u{2603} astral \u{1F600}".into(),
        floats: vec![0.0, -0.0, 1.0, 0.1, 1e300, 5e-324, 123456.789, f64::MAX],
        ints: (i64::MIN, u64::MAX, 255),
        by_cluster: [(ClusterId(3), Some(true)), (ClusterId(10), None)].into(),
        defaulted: 4,
        unit: (),
        bytes: (0..=255).collect(),
        nested: vec![("a".into(), vec![1, 2]), ("".into(), vec![])],
    };
    let text = json(&v);
    assert!(
        text.contains(r#""by_cluster":{"3":true,"10":null}"#),
        "{text}"
    );
    assert!(text.contains(r"nul \u0000 snow") && text.contains('\u{2603}'));
    assert_eq!(serde_json::from_str::<Kitchen>(&text).unwrap(), v);
    // Escapes other encoders may choose also decode.
    let s: String = serde_json::from_str(r#""☃ 😀 \/ \b\f""#).unwrap();
    assert_eq!(s, "\u{2603} \u{1F600} / \u{8}\u{c}");
    // Pretty output is the same value, one member per line.
    let pretty = serde_json::to_string_pretty(&v).unwrap();
    assert!(pretty.contains("\n  \"text\": "));
    assert_eq!(serde_json::from_str::<Kitchen>(&pretty).unwrap(), v);
    // Non-finite floats have no JSON form; serde_json writes null.
    assert_eq!(json(&f64::NAN), "null");
    assert_eq!(json(&1.0f64), "1.0");
}

#[test]
fn seeded_generator_repeats_and_stays_in_range() {
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<u32> = (0..8).map(|_| rng.random_range(0..10)).collect();
        let f: f64 = rng.random();
        let mut salt = [0u8; 16];
        rng.fill(&mut salt);
        (a, f, salt)
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..10_000 {
        assert!((3..=5).contains(&rng.random_range(3..=5u64)));
        assert!((-2.0..2.0).contains(&rng.random_range(-2.0..2.0)));
        let unit: f64 = rng.random();
        assert!((0.0..1.0).contains(&unit));
    }
}
