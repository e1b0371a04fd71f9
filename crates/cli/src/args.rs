//! Minimal `--flag value` / `--switch` argument parsing, driven by the
//! command table.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::table;

/// Error produced while parsing or extracting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A valued `--flag` appeared with no value after it.
    MissingValue(String),
    /// A flag's value failed to parse as the requested type.
    InvalidValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "missing value for --{flag}"),
            ArgError::InvalidValue { flag, value } => {
                write!(f, "invalid value {value:?} for --{flag}")
            }
        }
    }
}

impl Error for ArgError {}

/// Parsed arguments: a subcommand plus `--flag [value]` options and
/// positional operands.
///
/// Reads go through the subcommand's row of the command table: an absent
/// flag reads as its declared default, and reading a flag the row does
/// not declare (or a switch as a value, or the reverse) panics, since
/// that is a bug in the command, not in the invocation.
///
/// # Examples
///
/// ```
/// use archdse_cli::Args;
///
/// let args = Args::parse(["explore", "--area", "7.5", "--general"].map(String::from))?;
/// assert_eq!(args.command(), Some("explore"));
/// assert_eq!(args.value::<f64>("area")?, 7.5);
/// assert_eq!(args.value::<u64>("seed")?, 0);
/// assert!(args.switch("general"));
/// # Ok::<(), archdse_cli::ArgError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: Option<String>,
    options: BTreeMap<String, Option<String>>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses a token stream (excluding the program name).
    ///
    /// The first non-flag token is the subcommand; later non-flag
    /// tokens collect as positional operands (each command decides how
    /// many it accepts — see [`Args::positionals`]). A switch the
    /// subcommand declares never takes a value, so a word after it is an
    /// operand; any other flag takes the following token as its value
    /// unless that token is itself a flag.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(flag) = token.strip_prefix("--") {
                let switch =
                    args.row().and_then(|c| c.flag(flag)).is_some_and(|f| f.value.is_none());
                let value =
                    if switch { None } else { iter.next_if(|next| !next.starts_with("--")) };
                args.options.insert(flag.to_string(), value);
            } else if args.command.is_none() {
                args.command = Some(token);
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// Positional operands after the subcommand, in order (e.g. the ELF
    /// path of `ingest <elf>`). Commands that take none reject any.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether the declared switch `name` was passed.
    pub fn switch(&self, name: &str) -> bool {
        assert!(self.declared(name).value.is_none(), "--{name} takes a value, not a switch");
        self.given(name)
    }

    /// The declared valued flag `name` parsed as `T`: the value passed,
    /// else the declared default, else `Ok(None)`.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingValue`] if the flag was present without a
    /// value, [`ArgError::InvalidValue`] if parsing failed.
    pub fn value_of<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        let flag = self.declared(name);
        assert!(flag.value.is_some(), "--{name} is a switch, not a valued flag");
        let raw = match self.options.get(name) {
            Some(Some(raw)) => raw.as_str(),
            Some(None) => return Err(ArgError::MissingValue(name.to_string())),
            None => match flag.default_for(self) {
                Some(default) => default,
                None => return Ok(None),
            },
        };
        raw.parse()
            .map(Some)
            .map_err(|_| ArgError::InvalidValue { flag: name.to_string(), value: raw.to_string() })
    }

    /// Like [`Args::value_of`] for a flag that declares a default.
    ///
    /// # Errors
    ///
    /// Propagates [`Args::value_of`] errors.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        Ok(self.value_of(name)?.unwrap_or_else(|| panic!("--{name} declares no default")))
    }

    /// Whether `--name` was passed at all.
    pub(crate) fn given(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// Every `--flag` that was passed with its raw value, in name order.
    pub(crate) fn given_flags(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        self.options.iter().map(|(name, value)| (name.as_str(), value.as_deref()))
    }

    fn row(&self) -> Option<&'static table::Command> {
        self.command.as_deref().and_then(table::find)
    }

    fn declared(&self, name: &str) -> &'static table::Flag {
        self.row().and_then(|c| c.flag(name)).unwrap_or_else(|| {
            panic!(
                "`{}` reads --{name}, which its table row does not declare",
                self.command.as_deref().unwrap_or("")
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn subcommand_and_flags() {
        let a = parse(&["sweep", "--general", "--seed", "7"]);
        assert_eq!(a.command(), Some("sweep"));
        assert!(a.switch("general"));
        assert_eq!(a.value_of::<u64>("seed").unwrap(), Some(7));
        assert_eq!(a.value_of::<String>("json").unwrap(), None);
    }

    #[test]
    fn flag_followed_by_flag_is_missing_its_value() {
        let a = parse(&["explore", "--save-fnn", "--area", "8.0"]);
        assert_eq!(
            a.value_of::<String>("save-fnn"),
            Err(ArgError::MissingValue("save-fnn".into()))
        );
        assert_eq!(a.value::<f64>("area").unwrap(), 8.0);
    }

    #[test]
    fn a_word_after_a_switch_is_an_operand() {
        let a = parse(&["trace-report", "--requests", "stray", "--trace", "f.jsonl"]);
        assert!(a.switch("requests"));
        assert_eq!(a.positionals(), ["stray".to_string()]);
        // The same name is valued where the row says so.
        let a = parse(&["loadgen", "--requests", "3"]);
        assert_eq!(a.value::<usize>("requests").unwrap(), 3);
    }

    #[test]
    fn positionals_collect_in_order() {
        let a = parse(&["ingest", "a.elf", "--name", "x", "b.elf"]);
        assert_eq!(a.command(), Some("ingest"));
        assert_eq!(a.positionals(), ["a.elf".to_string(), "b.elf".to_string()]);
        assert_eq!(a.value_of::<String>("name").unwrap().as_deref(), Some("x"));
    }

    #[test]
    fn bad_value_reports_the_flag() {
        let a = parse(&["explore", "--seed", "banana"]);
        assert_eq!(
            a.value_of::<u64>("seed").unwrap_err(),
            ArgError::InvalidValue { flag: "seed".to_string(), value: "banana".to_string() }
        );
    }

    #[test]
    fn absent_flags_read_their_declared_defaults() {
        let a = parse(&["explore"]);
        assert_eq!(a.value::<u64>("seed").unwrap(), 0);
        assert_eq!(a.value::<usize>("trace-len").unwrap(), 30_000);
        assert_eq!(a.value_of::<f64>("leakage").unwrap(), None);
        // A default can depend on another flag.
        assert_eq!(parse(&["loadgen"]).value_of::<f64>("duration").unwrap(), None);
        let a = parse(&["loadgen", "--concurrency", "4"]);
        assert_eq!(a.value_of::<f64>("duration").unwrap(), Some(2.0));
        let a = parse(&["loadgen", "--trend", "--concurrency", "4"]);
        assert_eq!(a.value_of::<f64>("duration").unwrap(), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "does not declare")]
    fn reading_an_undeclared_flag_panics() {
        let _ = parse(&["space"]).value_of::<u64>("seed");
    }

    #[test]
    fn given_flags_lists_everything_passed() {
        let a = parse(&["explore", "--seed", "1", "--quikc"]);
        let names: Vec<&str> = a.given_flags().map(|(name, _)| name).collect();
        assert_eq!(names, vec!["quikc", "seed"]);
    }
}
