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

/// The command-line flags of one binary (`logirec` and the bench
/// binaries): `--key value` pairs and boolean `--key` switches.
///
/// Parsing rejects a flag the binary does not read, a value flag with no
/// value after it, and a stray argument, each with the binary's usage
/// text, so a typo such as `--nprob 16` fails instead of silently running
/// with the default.
pub struct Flags {
    pairs: Vec<(String, String)>,
    bools: Vec<String>,
    usage: &'static str,
}

impl Flags {
    /// Parses `args` against the flags (named without the leading `--`)
    /// that take a value and the ones that do not.
    pub fn parse(
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
        usage: &'static str,
    ) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut bools = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}\n{usage}"));
            };
            if bool_flags.contains(&key) {
                bools.push(key.to_string());
            } else if !value_flags.contains(&key) {
                return Err(format!("unknown flag --{key}\n{usage}"));
            } else {
                match it.next() {
                    Some(value) if !value.starts_with("--") => {
                        pairs.push((key.to_string(), value.clone()));
                    }
                    _ => return Err(format!("missing value for --{key}\n{usage}")),
                }
            }
        }
        Ok(Self { pairs, bools, usage })
    }

    /// The value given for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether the boolean flag `key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.bools.iter().any(|k| k == key)
    }

    /// The value given for `key`, or an error naming it.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}\n{}", self.usage))
    }

    /// The value given for `key` parsed as `T`, or `default` when absent.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Flags;

    fn flags(s: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = s.iter().map(|a| a.to_string()).collect();
        Flags::parse(&args, &["requests", "seed"], &["profile"], "usage: bench")
    }

    #[test]
    fn absent_flag_takes_the_default() {
        let f = flags(&["--seed", "3"]).unwrap();
        assert_eq!(f.parse_or("requests", 400usize), Ok(400));
        assert!(!f.has("profile"));
    }

    #[test]
    fn valid_value_is_parsed() {
        let f = flags(&["--seed", "3", "--profile", "--requests", "1000"]).unwrap();
        assert_eq!(f.parse_or("requests", 400usize), Ok(1000));
        assert_eq!(f.parse_or("seed", 7u64), Ok(3));
        assert!(f.has("profile"));
    }

    #[test]
    fn malformed_value_is_an_error() {
        let f = flags(&["--requests", "1e3"]).unwrap();
        let err = f.parse_or("requests", 400usize).unwrap_err();
        assert!(err.contains("--requests") && err.contains("1e3"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        for a in [&["--requests"][..], &["--requests", "--seed", "3"]] {
            let err = flags(a).err().expect("rejected");
            assert!(err.contains("missing value for --requests"), "{err}");
            assert!(err.contains("usage: bench"), "{err}");
        }
    }

    #[test]
    fn unknown_flag_is_an_error() {
        for (a, expected) in [
            (&["--nprob", "16"][..], "unknown flag --nprob"),
            (&["--seed", "3", "--bogus"], "unknown flag --bogus"),
            (&["--seed", "3", "4"], "unexpected argument \"4\""),
        ] {
            let err = flags(a).err().expect("rejected");
            assert!(err.contains(expected), "{err}");
            assert!(err.contains("usage: bench"), "{err}");
        }
    }
}
