#![warn(missing_docs)]

//! Umbrella crate for the LogiRec/LogiRec++ reproduction.
//!
//! This crate hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`); it re-exports every workspace crate so that
//! examples can use one coherent namespace.

pub use logirec_baselines as baselines;
pub use logirec_core as core;
pub use logirec_data as data;
pub use logirec_eval as eval;
pub use logirec_hyperbolic as hyperbolic;
pub use logirec_linalg as linalg;
pub use logirec_obs as obs;
pub use logirec_serve as serve;
pub use logirec_taxonomy as taxonomy;

/// Reads the value that follows `flag` in a bench binary's arguments.
///
/// Returns `default` when `flag` is absent. Returns an error naming the
/// flag when it is present but has no value (it is the last argument, or
/// the next one is another `--flag`) or its value does not parse as `T`,
/// so a typo such as `--requests 1e3` fails instead of silently running
/// with the default.
pub fn flag_value<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    match args.get(i + 1).filter(|v| !v.starts_with("--")) {
        None => Err(format!("{flag} needs a value")),
        Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::flag_value;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn absent_flag_takes_the_default() {
        let a = args(&["--seed", "3"]);
        assert_eq!(flag_value(&a, "--requests", 400usize), Ok(400));
    }

    #[test]
    fn valid_value_is_parsed() {
        let a = args(&["--seed", "3", "--requests", "1000"]);
        assert_eq!(flag_value(&a, "--requests", 400usize), Ok(1000));
        assert_eq!(flag_value(&a, "--seed", 7u64), Ok(3));
    }

    #[test]
    fn malformed_value_is_an_error() {
        let err = flag_value(&args(&["--requests", "1e3"]), "--requests", 400usize).unwrap_err();
        assert!(err.contains("--requests") && err.contains("1e3"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        for a in [args(&["--requests"]), args(&["--requests", "--seed", "3"])] {
            let err = flag_value(&a, "--requests", 400usize).unwrap_err();
            assert!(err.contains("--requests needs a value"), "{err}");
        }
    }
}
