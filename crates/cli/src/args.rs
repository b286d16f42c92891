//! Tiny flag parser shared by the subcommands (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: positionals plus `--flag value` / `--flag` pairs.
/// Flags may repeat (`--graph a=x --graph b=y`); [`Args::get`] returns the
/// last occurrence, [`Args::get_all`] every occurrence in order.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    flags: HashMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "undirected",
    "quiet",
    "admin",
    "persist-pools",
    "event-loop",
    "mmap",
    "mmap-pools",
];

impl Args {
    /// Parses argv (without the subcommand name).
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    args.flags
                        .entry(name.to_string())
                        .or_default()
                        .push(value.clone());
                }
            } else if let Some(name) = a.strip_prefix('-') {
                // Short flags: -k 50 style.
                let value = it
                    .next()
                    .ok_or_else(|| format!("-{name} requires a value"))?;
                args.flags
                    .entry(name.to_string())
                    .or_default()
                    .push(value.clone());
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    /// Rejects every flag and switch whose name (without dashes) is not in
    /// `known`, so a typo or a removed option is an error instead of being
    /// silently ignored. With several unknown names the alphabetically
    /// first is reported.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        let unknown = self
            .flags
            .keys()
            .chain(&self.switches)
            .filter(|name| !known.contains(&name.as_str()))
            .min();
        match unknown {
            Some(name) if name.len() == 1 => Err(format!("unknown flag -{name}")),
            Some(name) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }

    /// True when the boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// String flag value (the last occurrence when repeated).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Every occurrence of a repeatable flag, in command-line order.
    pub fn get_all(&self, name: &str) -> &[String] {
        self.flags.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Parsed flag with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }

    /// Required positional argument.
    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }
}

// The id-list grammar is owned by the wire protocol (`--seeds` uses the
// same `id,id,...` form as protocol queries); re-export the single
// implementation rather than keeping a drift-prone copy here.
pub use tim_server::protocol::parse_id_list;

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_positionals_flags_and_switches() {
        let a = Args::parse(&argv("edges.txt -k 50 --eps 0.2 --undirected")).unwrap();
        assert_eq!(a.positional, vec!["edges.txt"]);
        assert_eq!(a.get("k"), Some("50"));
        assert_eq!(a.get_parsed("eps", 0.1).unwrap(), 0.2);
        assert!(a.switch("undirected"));
        assert!(!a.switch("quiet"));
    }

    #[test]
    fn repeated_flags_keep_every_occurrence() {
        let a = Args::parse(&argv("--graph a=x --graph b=y --eps 0.1 --eps 0.2")).unwrap();
        assert_eq!(a.get_all("graph"), ["a=x".to_string(), "b=y".to_string()]);
        assert_eq!(a.get("graph"), Some("b=y"), "get returns the last");
        assert_eq!(a.get_parsed("eps", 0.0).unwrap(), 0.2);
        assert!(a.get_all("nope").is_empty());
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let a = Args::parse(&argv("x")).unwrap();
        assert_eq!(a.get_parsed("runs", 10_000usize).unwrap(), 10_000);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv("x --eps")).is_err());
        assert!(Args::parse(&argv("x -k")).is_err());
    }

    #[test]
    fn unknown_flags_and_switches_are_rejected() {
        let known = ["k", "eps", "quiet"];
        let a = Args::parse(&argv("g -k 5 --eps 0.1 --quiet")).unwrap();
        assert!(a.reject_unknown(&known).is_ok());
        // A misspelt value flag, a switch, and a short flag.
        for (line, want) in [
            ("g --epz 0.1", "unknown flag --epz"),
            ("g --admin", "unknown flag --admin"),
            ("g -x 1", "unknown flag -x"),
        ] {
            let a = Args::parse(&argv(line)).unwrap();
            assert_eq!(a.reject_unknown(&known).unwrap_err(), want);
        }
    }

    #[test]
    fn bad_parse_is_reported() {
        let a = Args::parse(&argv("x --eps abc")).unwrap();
        assert!(a.get_parsed("eps", 0.1f64).is_err());
    }

    #[test]
    fn missing_positional_is_reported() {
        let a = Args::parse(&argv("--eps 0.1")).unwrap();
        assert!(a.positional(0, "input file").is_err());
    }

    #[test]
    fn id_list_parses_and_rejects() {
        assert_eq!(parse_id_list("1,2, 3").unwrap(), vec![1, 2, 3]);
        assert!(parse_id_list("1,x").is_err());
        assert_eq!(parse_id_list("").unwrap(), Vec::<u64>::new());
    }
}
