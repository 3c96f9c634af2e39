//! Minimal argument parsing.
//!
//! The CLI deliberately avoids an argument-parsing dependency: its
//! grammar is one subcommand, positional arguments, and `--key value`
//! / `--flag` options, which thirty lines of code parse unambiguously.

use std::collections::HashMap;

/// Parsed command line: subcommand, positionals, options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options and bare `--flag`s (mapped to `"true"`).
    options: HashMap<String, String>,
}

/// Options whose presence alone is meaningful (no value follows).
const BARE_FLAGS: &[&str] = &["cold", "full", "help", "ingest", "smoke", "watch"];

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a message when an option is dangling (`--out` with no
    /// value) or repeated.
    pub fn parse<I, S>(raw: I) -> Result<Args, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                let value = if BARE_FLAGS.contains(&name) {
                    "true".to_owned()
                } else {
                    iter.next()
                        .ok_or_else(|| format!("option --{name} expects a value"))?
                };
                if args.options.insert(name.to_owned(), value).is_some() {
                    return Err(format!("option --{name} given twice"));
                }
            } else if args.command.is_empty() {
                args.command = token;
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// String option by name.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Returns `true` if a bare flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.get(name).is_some_and(|v| v == "true")
    }

    /// Numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{name} expects an integer, got {v:?}")),
        }
    }

    /// u64 option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{name} expects an integer, got {v:?}")),
        }
    }

    /// The `n`-th positional argument.
    ///
    /// # Errors
    ///
    /// Returns a message naming `what` when it is missing.
    pub fn positional(&self, n: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(n)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument: {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn subcommand_and_positionals() {
        let a = parse(&["stats", "crawl.tsv", "extra"]);
        assert_eq!(a.command, "stats");
        assert_eq!(a.positional, vec!["crawl.tsv", "extra"]);
        assert_eq!(a.positional(0, "file").unwrap(), "crawl.tsv");
        assert!(a.positional(5, "missing thing").is_err());
    }

    #[test]
    fn options_and_flags() {
        let a = parse(&["generate", "--videos", "500", "--out", "x.tsv", "--full"]);
        assert_eq!(a.get("videos"), Some("500"));
        assert_eq!(a.get_usize("videos", 1).unwrap(), 500);
        assert_eq!(a.get_usize("absent", 7).unwrap(), 7);
        assert_eq!(a.get("out"), Some("x.tsv"));
        assert!(a.flag("full"));
        assert!(!a.flag("help"));
    }

    #[test]
    fn dangling_option_is_an_error() {
        assert!(Args::parse(["cmd", "--out"]).is_err());
    }

    #[test]
    fn repeated_option_is_an_error() {
        assert!(Args::parse(["cmd", "--seed", "1", "--seed", "2"]).is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse(&["cmd", "--videos", "lots"]);
        assert!(a.get_usize("videos", 1).is_err());
        assert!(a.get_u64("videos", 1).is_err());
    }

    #[test]
    fn empty_input_is_empty_command() {
        let a = Args::parse(Vec::<String>::new()).unwrap();
        assert!(a.command.is_empty());
    }

    #[test]
    fn flags_do_not_eat_values() {
        let a = parse(&["report", "--full", "out.md"]);
        assert!(a.flag("full"));
        assert_eq!(a.positional, vec!["out.md"]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of plain words parses: first = command, rest
        /// positional.
        #[test]
        fn plain_words_always_parse(words in proptest::collection::vec("[a-z0-9.]{1,10}", 0..8)) {
            let parsed = Args::parse(words.iter().cloned()).unwrap();
            if let Some(first) = words.first() {
                prop_assert_eq!(&parsed.command, first);
                prop_assert_eq!(parsed.positional.len(), words.len() - 1);
            } else {
                prop_assert!(parsed.command.is_empty());
            }
        }
    }
}
