//! Minimal flag parsing (no external dependency), shared by the
//! experiment binaries and the `dynastar` CLI.

use std::collections::HashMap;

use dynastar_core::Mode;

/// The replication schemes by their command-line name.
const MODES: [(&str, Mode); 3] =
    [("dynastar", Mode::Dynastar), ("ssmr", Mode::SSmr), ("dssmr", Mode::DsSmr)];

/// The command-line name of `mode` (the inverse of [`Args::mode_or`]).
pub fn mode_name(mode: Mode) -> &'static str {
    MODES.iter().find(|(_, m)| *m == mode).map_or("?", |(name, _)| name)
}

/// Parsed `--key value` flags and bare `--switch`es, plus the leading
/// subcommand.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first positional token (subcommand), if any.
    pub command: Option<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses a raw argument list (without the program name). `flags`
    /// names the flags that take a value, `switches` the bare ones.
    ///
    /// # Errors
    ///
    /// Returns an error for an undeclared flag, a dangling `--flag` with
    /// no value or an unexpected extra positional.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        flags: &[&str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = if switches.contains(&name) {
                    String::new()
                } else if flags.contains(&name) {
                    it.next().ok_or_else(|| format!("flag --{name} needs a value"))?
                } else {
                    return Err(format!("unknown flag --{name}"));
                };
                out.flags.insert(name.to_string(), value);
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                return Err(format!("unexpected positional argument {tok:?}"));
            }
        }
        Ok(out)
    }

    /// A string flag, or `default` when absent.
    pub fn str_or(&self, name: &str, default: &str) -> String {
        self.flags.get(name).cloned().unwrap_or_else(|| default.to_string())
    }

    /// A flag's value, if supplied.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A numeric flag, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name} {v:?}: {e}")),
        }
    }

    /// An `on|off` flag, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error for any other value.
    pub fn on_off(&self, name: &str, default: bool) -> Result<bool, String> {
        match self.get(name) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(other) => Err(format!("--{name} {other:?}: expected on|off")),
        }
    }

    /// A `dynastar|ssmr|dssmr` flag, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown mode name.
    pub fn mode_or(&self, name: &str, default: Mode) -> Result<Mode, String> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => MODES
                .iter()
                .find(|(n, _)| *n == s)
                .map(|(_, m)| *m)
                .ok_or_else(|| format!("unknown mode {s:?} (dynastar|ssmr|dssmr)")),
        }
    }

    /// Whether a flag or switch was supplied at all.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

/// Prints `error` and `usage` to stderr and exits 2.
pub fn fail(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\n\n{usage}");
    std::process::exit(2)
}

/// Entry point of a binary that takes flags but no positional argument:
/// parses the process arguments and runs `body` on them. A bad argument,
/// or an error `body` returns, exits 2 through [`fail`].
pub fn run(
    usage: &str,
    flags: &[&str],
    switches: &[&str],
    body: impl FnOnce(&Args) -> Result<(), String>,
) {
    let result =
        Args::parse(std::env::args().skip(1), flags, switches).and_then(|a| match &a.command {
            Some(extra) => Err(format!("unexpected positional argument {extra:?}")),
            None => body(&a),
        });
    if let Err(e) = result {
        fail(usage, &e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&str] = &["partitions", "mode", "seed", "out"];

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| s.to_string()), FLAGS, &["smoke"])
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = parse(&["chirper", "--partitions", "4", "--mode", "ssmr"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("chirper"));
        assert_eq!(a.num_or("partitions", 1u32).unwrap(), 4);
        assert_eq!(a.str_or("mode", "dynastar"), "ssmr");
        assert_eq!(a.mode_or("mode", Mode::Dynastar).unwrap(), Mode::SSmr);
        assert_eq!(a.num_or("seed", 7u64).unwrap(), 7);
        assert!(a.has("mode"));
        assert!(!a.has("seed"));
    }

    #[test]
    fn switch_followed_by_valued_flag() {
        let a = parse(&["--smoke", "--out", "run.json"]).unwrap();
        assert!(a.has("smoke"));
        assert_eq!(a.get("out"), Some("run.json"));
        assert_eq!(a.command, None);
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = parse(&["--smoke", "--bogus", "1"]).unwrap_err();
        assert!(err.contains("--bogus"), "unexpected error: {err}");
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(parse(&["tpcc", "--partitions"]).is_err());
    }

    #[test]
    fn rejects_extra_positional() {
        assert!(parse(&["tpcc", "extra"]).is_err());
    }

    #[test]
    fn reports_bad_values() {
        let a = parse(&["tpcc", "--partitions", "many", "--mode", "paxos"]).unwrap();
        assert!(a.num_or("partitions", 1u32).is_err());
        assert!(a.mode_or("mode", Mode::Dynastar).is_err());
        assert!(a.on_off("mode", true).is_err());
    }

    #[test]
    fn mode_names_round_trip() {
        for (name, mode) in MODES {
            assert_eq!(mode_name(mode), name);
        }
    }
}
