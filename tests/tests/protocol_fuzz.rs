//! Line-protocol fuzzing: whatever arrives on a line, the server answers it
//! with exactly one JSON line carrying a boolean `ok`, never panics, and is
//! still serving afterwards.
//!
//! Each case feeds [`serve_lines`] over an in-memory cache with a random mix
//! of random byte lines, truncated prefixes of valid `sweep`/`stats`/
//! `metrics` requests, bracket-nested lines (some far past the parser's
//! nesting bound) and a few valid requests, then a final `stats`. Sweeps
//! run a 12-job scenario, so the whole property takes seconds.

use mapreduce_experiments::{Scenario, SchedulerKind};
use mapreduce_server::{serve_lines, ResultCache, SweepRequest, SweepServer};
use mapreduce_support::json::{JsonValue, ToJson, MAX_DEPTH};
use mapreduce_support::proptest::prelude::*;
use mapreduce_support::rng::{Rng, SimRng};

/// The valid requests every truncated prefix is cut from.
fn valid_requests() -> Vec<String> {
    let sweep = SweepRequest::new(Scenario::scaled(12, 1), vec![SchedulerKind::Fifo]);
    let JsonValue::Object(mut sweep) = sweep.to_json() else {
        unreachable!("requests serialize to objects")
    };
    sweep.insert("cmd".into(), JsonValue::String("sweep".into()));
    vec![
        JsonValue::Object(sweep).to_compact_string(),
        r#"{"cmd":"stats"}"#.to_string(),
        r#"{"cmd":"metrics"}"#.to_string(),
    ]
}

/// One random request line (no newline inside).
fn random_line(rng: &mut SimRng, valid: &[String]) -> Vec<u8> {
    let request = valid[rng.gen_range(0..valid.len())].as_bytes();
    match rng.gen_range(0u32..10) {
        // Random bytes, any value but the line terminator.
        0..=2 => (0..rng.gen_range(0usize..120))
            .map(|_| rng.gen_range(0u32..255) as u8)
            .map(|b| if b == b'\n' { b'x' } else { b })
            .collect(),
        // A truncated prefix of a valid request.
        3..=5 => request[..rng.gen_range(0..request.len())].to_vec(),
        // Brackets nested around the limit, closed or not.
        6 | 7 => {
            let depth = rng.gen_range(1..3 * MAX_DEPTH);
            let open = if rng.gen_bool(0.5) { "[" } else { "{\"a\":" };
            let mut line = open.repeat(depth);
            if rng.gen_bool(0.5) && open == "[" {
                line.push_str(&"]".repeat(depth));
            }
            line.into_bytes()
        }
        // Far past any stack a recursive parser could survive.
        8 => "[".repeat(200_000).into_bytes(),
        // A valid request.
        _ => request.to_vec(),
    }
}

/// Whether the protocol ignores a line (its blank-line rule).
fn is_blank(line: &[u8]) -> bool {
    String::from_utf8_lossy(line).trim().is_empty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_line_gets_one_answer_and_serving_survives(
        seed in 0u64..u64::MAX,
        count in 1usize..25,
    ) {
        let valid = valid_requests();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut input = Vec::new();
        let mut expected = 0;
        for _ in 0..count {
            let line = random_line(&mut rng, &valid);
            expected += usize::from(!is_blank(&line));
            input.extend_from_slice(&line);
            input.push(b'\n');
        }
        input.extend_from_slice(b"{\"cmd\":\"stats\"}\n");
        expected += 1;

        let server = SweepServer::new(ResultCache::in_memory());
        let mut output = Vec::new();
        let stats = serve_lines(&server, input.as_slice(), &mut output)
            .map_err(|e| format!("transport error: {e}"))?;
        prop_assert!(!stats.shutdown);
        let text = String::from_utf8(output).map_err(|e| e.to_string())?;
        let responses: Vec<JsonValue> = text
            .lines()
            .map(JsonValue::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("a response line is not JSON: {e}"))?;
        prop_assert_eq!(responses.len(), expected);
        for response in &responses {
            prop_assert!(
                response.get("ok").and_then(JsonValue::as_bool).is_some(),
                "response without a boolean `ok`: {}",
                response.to_compact_string()
            );
        }
        let last = responses.last().expect("the final stats is answered");
        prop_assert_eq!(last.get("ok").and_then(JsonValue::as_bool), Some(true));
        prop_assert_eq!(last.get("cmd").and_then(JsonValue::as_str), Some("stats"));
    }
}
