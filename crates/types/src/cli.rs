//! Std-only command-line and environment-knob parsing shared by every
//! binary in the workspace.
//!
//! One exit-code rule holds everywhere: `--help`/`-h` prints the usage
//! text to stdout and exits 0; an unknown flag, a missing or unparsable
//! value, or an unparsable environment knob prints a message naming the
//! culprit plus the usage text to stderr and exits 2. User input never
//! panics.
//!
//! ```no_run
//! use pipm_types::cli::Cli;
//!
//! const USAGE: &str = "usage: demo [--count N] [--names a,b]";
//! let mut cli = Cli::new(USAGE);
//! let mut count: u32 = cli.env("DEMO_COUNT").unwrap_or(1);
//! let mut names: Vec<String> = Vec::new();
//! while let Some(flag) = cli.next() {
//!     match flag.as_str() {
//!         "--count" => count = cli.value(),
//!         "--names" => names = cli.list(),
//!         _ => cli.unknown(),
//!     }
//! }
//! ```

use std::fmt::Display;
use std::str::FromStr;

/// Iterator over a binary's arguments that also reads the value of the
/// flag it last yielded. Every reader exits the process on bad input
/// (see the module docs), so callers only ever see well-formed values.
pub struct Cli {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Cli {
    /// Reads the process arguments (program name skipped).
    pub fn new(usage: &'static str) -> Cli {
        Cli::from_args(usage, std::env::args().skip(1))
    }

    /// Reads an explicit argument list.
    pub fn from_args(usage: &'static str, args: impl IntoIterator<Item = String>) -> Cli {
        Cli {
            usage,
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
        }
    }

    /// The raw value following the last flag.
    pub fn string(&mut self) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.fail(format_args!("{} needs a value", self.flag)),
        }
    }

    /// The value following the last flag, parsed as `T`.
    pub fn value<T: FromStr>(&mut self) -> T
    where
        T::Err: Display,
    {
        let raw = self.string();
        parse(&raw).unwrap_or_else(|e| self.fail(format_args!("{}: {e}", self.flag)))
    }

    /// The value following the last flag, parsed as a non-empty
    /// comma-separated list of `T`.
    pub fn list<T: FromStr>(&mut self) -> Vec<T>
    where
        T::Err: Display,
    {
        let raw = self.string();
        parse_list(&raw).unwrap_or_else(|e| self.fail(format_args!("{}: {e}", self.flag)))
    }

    /// Environment variable `name` parsed as `T`; `None` when unset or
    /// empty.
    pub fn env<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let raw = env_value(name)?;
        Some(parse(&raw).unwrap_or_else(|e| self.fail(format_args!("{name}: {e}"))))
    }

    /// Environment variable `name` parsed as a non-empty comma-separated
    /// list of `T`; `None` when unset or empty.
    pub fn env_list<T: FromStr>(&self, name: &str) -> Option<Vec<T>>
    where
        T::Err: Display,
    {
        let raw = env_value(name)?;
        Some(parse_list(&raw).unwrap_or_else(|e| self.fail(format_args!("{name}: {e}"))))
    }

    /// Rejects the argument last yielded by [`Cli::next`].
    pub fn unknown(&self) -> ! {
        self.fail(format_args!("unknown argument `{}`", self.flag))
    }

    /// Prints `msg` and the usage text to stderr and exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        fail(self.usage, msg)
    }
}

impl Iterator for Cli {
    type Item = String;

    /// The next flag or positional word. `--help`/`-h` prints the usage
    /// text to stdout and exits 0.
    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

/// Prints `msg` and `usage` to stderr and exits 2: the error path of
/// every reader, for checks a binary makes after parsing.
pub fn fail(usage: &str, msg: impl Display) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

fn env_value(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty())
}

/// Parses one trimmed value, describing a failure as "cannot parse `raw`
/// (reason)".
fn parse<T: FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.trim()
        .parse()
        .map_err(|e| format!("cannot parse `{raw}` ({e})"))
}

/// Parses a non-empty comma-separated list; empty items are skipped, so
/// `a,b,` is two items and `,` is an error.
fn parse_list<T: FromStr>(raw: &str) -> Result<Vec<T>, String>
where
    T::Err: Display,
{
    let items = raw
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(parse)
        .collect::<Result<Vec<T>, String>>()?;
    if items.is_empty() {
        return Err(format!("`{raw}` is an empty list"));
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeKind;

    #[test]
    fn iterates_flags_and_reads_their_values() {
        let args = [
            "status",
            "--refs",
            " 20 ",
            "--schemes",
            "pipm,native,",
            "--addr",
            "x:1",
        ];
        let mut cli = Cli::from_args("usage", args.map(String::from));
        assert_eq!(cli.next().as_deref(), Some("status"));
        assert_eq!(cli.next().as_deref(), Some("--refs"));
        assert_eq!(cli.value::<u64>(), 20);
        assert_eq!(cli.next().as_deref(), Some("--schemes"));
        assert_eq!(
            cli.list::<SchemeKind>(),
            vec![SchemeKind::Pipm, SchemeKind::Native]
        );
        assert_eq!(cli.next().as_deref(), Some("--addr"));
        assert_eq!(cli.string(), "x:1");
        assert_eq!(cli.next(), None);
    }

    #[test]
    fn parse_names_the_raw_value_and_the_reason() {
        assert_eq!(parse::<usize>(" 4 "), Ok(4));
        let err = parse::<usize>("four").unwrap_err();
        assert!(
            err.contains("`four`") && err.contains("invalid digit"),
            "{err}"
        );
        assert!(parse::<f64>("abc").is_err());
        assert!(parse::<u64>("-3").is_err());
        assert!(parse::<u64>("1.5").is_err());
    }

    #[test]
    fn lists_must_be_non_empty_and_every_item_must_parse() {
        assert_eq!(parse_list::<u32>("1, 2,3"), Ok(vec![1, 2, 3]));
        assert_eq!(parse_list::<u32>("7,"), Ok(vec![7]));
        for bad in ["", ",", " , "] {
            assert!(parse_list::<u32>(bad).is_err(), "{bad:?}");
        }
        let err = parse_list::<SchemeKind>("pipm,nosuch").unwrap_err();
        assert!(err.contains("nosuch"), "{err}");
    }

    // `PIPM_WORKERS` is read through `Cli::env` as a `NonZeroUsize`,
    // which exits 2 on exactly the inputs `parse` rejects here.
    #[test]
    fn worker_counts_parse_or_are_rejected() {
        use std::num::NonZeroUsize;
        let workers = |raw: &str| parse::<NonZeroUsize>(raw).map(NonZeroUsize::get);
        assert_eq!(workers("4"), Ok(4));
        assert_eq!(workers(" 2 "), Ok(2));
        for bad in ["0", "-3", "four", "1.5"] {
            assert!(workers(bad).is_err(), "{bad:?} must be rejected");
        }
        // Unset and empty both mean "use the default".
        assert_eq!(env_value("PIPM_CLI_TEST_SURELY_UNSET"), None);
    }
}
