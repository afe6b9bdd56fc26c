//! Minimal `--flag value` argument parsing shared by the reproduction
//! binaries (kept dependency-free on purpose).
//!
//! A flag given without its value or with a value that does not parse
//! is a usage error: [`Args::get`] and [`Args::get_str`] print one
//! stderr line naming the flag and exit with code 2, as `sentinel`
//! does, from the typed [`FlagError`] their crate-private `try_` twins
//! return.

use std::collections::HashMap;
use std::fmt;

/// Parsed command line: positional arguments and `--key value` /
/// `--switch` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    switches: Vec<String>,
}

/// A usage error in one `--flag`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// The flag came last, or right before another `--flag`.
    MissingValue {
        /// The flag's name, without the dashes.
        flag: String,
    },
    /// The flag's value does not parse.
    InvalidValue {
        /// The flag's name, without the dashes.
        flag: String,
        /// The value as given.
        value: String,
    },
}

impl FlagError {
    /// `value` is not one `--flag` accepts.
    pub fn invalid(flag: &str, value: &str) -> Self {
        FlagError::InvalidValue {
            flag: flag.to_owned(),
            value: value.to_owned(),
        }
    }
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::MissingValue { flag } => write!(f, "--{flag} needs a value"),
            FlagError::InvalidValue { flag, value } => {
                write!(f, "--{flag}: invalid value {value:?}")
            }
        }
    }
}

/// Prints `error` as one stderr line and exits with code 2.
pub fn usage_error(error: impl fmt::Display) -> ! {
    eprintln!("{error}");
    std::process::exit(2)
}

impl Args {
    /// Parses the process arguments (after the binary name).
    pub fn from_env() -> Args {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                match iter.peek() {
                    Some(value) if !value.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        out.options.insert(name.to_owned(), value);
                    }
                    _ => out.switches.push(name.to_owned()),
                }
            } else {
                out.positional.push(arg);
            }
        }
        out
    }

    /// The positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether `--name` was given without a value.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of `--name`, parsed, or `default` when the flag is
    /// absent. A usage error exits the process (see the module docs).
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default)
            .unwrap_or_else(|error| usage_error(error))
    }

    /// The value of `--name`, parsed, or `default` when the flag is
    /// absent.
    ///
    /// # Errors
    ///
    /// [`FlagError`] when the flag has no value or it does not parse.
    pub(crate) fn try_get<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, FlagError> {
        match self.try_get_str(name)? {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| FlagError::invalid(name, raw)),
        }
    }

    /// The raw string value of `--name`, if present. A flag without its
    /// value exits the process (see the module docs).
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.try_get_str(name)
            .unwrap_or_else(|error| usage_error(error))
    }

    /// The raw string value of `--name`, if present.
    ///
    /// # Errors
    ///
    /// [`FlagError::MissingValue`] when the flag was given without one.
    pub(crate) fn try_get_str(&self, name: &str) -> Result<Option<&str>, FlagError> {
        if self.switch(name) {
            return Err(FlagError::MissingValue {
                flag: name.to_owned(),
            });
        }
        Ok(self.options.get(name).map(String::as_str))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_options_switches_and_positionals() {
        let args = parse(&["latency", "--runs", "20", "--quick", "--seed", "7"]);
        assert_eq!(args.positional(), &["latency".to_string()]);
        assert_eq!(args.get("runs", 0u64), 20);
        assert_eq!(args.get("seed", 0u64), 7);
        assert!(args.switch("quick"));
        assert!(!args.switch("verbose"));
        assert_eq!(args.get("missing", 42u32), 42);
    }

    #[test]
    fn bad_or_missing_values_are_typed_errors() {
        let args = parse(&["--runs", "banana"]);
        let error = args.try_get("runs", 0u64).unwrap_err();
        assert_eq!(error, FlagError::invalid("runs", "banana"));
        assert_eq!(error.to_string(), "--runs: invalid value \"banana\"");
        for args in [parse(&["--runs"]), parse(&["--runs", "--quick"])] {
            let missing = FlagError::MissingValue {
                flag: "runs".into(),
            };
            assert_eq!(args.try_get("runs", 0u64), Err(missing.clone()));
            assert_eq!(args.try_get_str("runs"), Err(missing));
        }
        assert_eq!(parse(&["--quick"]).try_get("runs", 5u64), Ok(5));
    }
}
