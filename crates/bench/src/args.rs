//! The one checked argument parser of the bench binaries.
//!
//! Every binary declares its surface once, as a `FLAGS` table of
//! `(flag, help line)` pairs; [`Cli`] walks `argv` against that table, so the
//! parser, `--help` and the drift test in `tests/cli_help.rs` cannot disagree.
//! Anything wrong on the command line — an unknown flag, a flag whose value is
//! missing, a value that does not parse — exits with status 2 and the
//! offending flag's help line instead of a panic backtrace.

use std::str::FromStr;

/// One binary's accepted flags with the help line printed for each.
pub type Flags = [(&'static str, &'static str)];

/// A cursor over the command line of one bench binary.
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    flags: &'static Flags,
    argv: std::vec::IntoIter<String>,
}

impl Cli {
    /// Parse the process's own arguments for `bin` (one-line description
    /// `about`) against its `flags` table, which must list `--help`.
    pub fn from_env(bin: &'static str, about: &'static str, flags: &'static Flags) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Cli {
            bin,
            about,
            flags,
            argv: argv.into_iter(),
        }
    }

    /// The next flag on the command line, as spelled in the table (so callers
    /// `match` on it), or `None` at the end. `--help`/`-h` prints the help and
    /// exits 0; anything not in the table exits 2 with a hint.
    pub fn next_flag(&mut self) -> Option<&'static str> {
        let arg = self.argv.next()?;
        if arg == "--help" || arg == "-h" {
            self.print_help();
            std::process::exit(0);
        }
        match self.flags.iter().find(|(flag, _)| *flag == arg) {
            Some((flag, _)) => Some(flag),
            None => exit_2(&format!("unknown argument {arg} (try --help)")),
        }
    }

    /// The raw value following `flag`; exits 2 when the command line ends first.
    pub fn value(&mut self, flag: &str) -> String {
        match self.argv.next() {
            Some(value) => value,
            None => self.fail(flag, "expects a value"),
        }
    }

    /// The value following `flag`, parsed; exits 2 when it is missing or does
    /// not parse as a `T`.
    pub fn parsed<T: FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value(flag);
        match parse(&raw) {
            Ok(value) => value,
            Err(problem) => self.fail(flag, &problem),
        }
    }

    /// Reject the command line: print `problem` with `flag`'s help line and
    /// exit 2. For the value checks a binary makes itself (ranges, formats).
    pub fn fail(&self, flag: &str, problem: &str) -> ! {
        exit_2(&self.complaint(flag, problem))
    }

    fn complaint(&self, flag: &str, problem: &str) -> String {
        let help = self
            .flags
            .iter()
            .find(|(known, _)| *known == flag)
            .map_or("", |(_, help)| help);
        format!("{flag} {problem}\n  {flag:<19} {help}\n(try --help)")
    }

    /// Print the usage text: one line per entry of the flag table.
    pub fn print_help(&self) {
        println!("{} — {}", self.bin, self.about);
        println!();
        println!("usage: {} [flags]", self.bin);
        for (flag, help) in self.flags {
            println!("  {flag:<19} {help}");
        }
    }
}

fn parse<T: FromStr>(raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("cannot take the value `{raw}`"))
}

fn exit_2(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &Flags = &[
        ("--sf", "scale factor (default 1)"),
        ("--smoke", "small fixed configuration"),
        ("--help", "print this help"),
    ];

    fn cli(argv: &[&str]) -> Cli {
        let argv: Vec<String> = argv.iter().map(|arg| arg.to_string()).collect();
        Cli {
            bin: "demo",
            about: "a demo",
            flags: FLAGS,
            argv: argv.into_iter(),
        }
    }

    #[test]
    fn walks_flags_and_values_in_order() {
        let mut cli = cli(&["--sf", "4", "--smoke"]);
        assert_eq!(cli.next_flag(), Some("--sf"));
        assert_eq!(cli.parsed::<u64>("--sf"), 4);
        assert_eq!(cli.next_flag(), Some("--smoke"));
        assert_eq!(cli.next_flag(), None);
    }

    #[test]
    fn complaints_carry_the_flags_help_line() {
        let cli = cli(&[]);
        let complaint = cli.complaint("--sf", "expects a value");
        assert!(complaint.contains("--sf expects a value"), "{complaint}");
        assert!(
            complaint.contains("scale factor (default 1)"),
            "{complaint}"
        );
        assert!(complaint.contains("--help"), "{complaint}");
        assert!(parse::<u64>("four").unwrap_err().contains("`four`"));
        assert_eq!(parse::<f64>("0.5"), Ok(0.5));
    }
}
