//! Command-line conventions every binary shares: flags with values, seeds
//! in decimal or `0x` hex, and exit 2 — after naming the bad input — for
//! any usage error or unwritable output.

use std::path::{Path, PathBuf};
use std::str::FromStr;

/// A binary's arguments, consumed flag by flag.
pub struct Argv {
    usage: String,
    args: std::vec::IntoIter<String>,
}

impl Argv {
    /// The process's arguments (program name skipped), with `usage` as
    /// the one-line usage message.
    pub fn from_env(usage: impl Into<String>) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let usage = usage.into();
        Argv {
            usage,
            args: args.into_iter(),
        }
    }

    /// The next flag, or `None` once every argument is consumed.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`; a missing value is a usage error.
    pub fn value(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// The path following `flag`.
    pub fn path(&mut self, flag: &str) -> PathBuf {
        PathBuf::from(self.value(flag))
    }

    /// The number following `flag` (a count, a size).
    pub fn count<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|_| self.fail(&format!("{flag} needs a number, got `{v}`")))
    }

    /// The seed following `flag`, in decimal or `0x` hex.
    pub fn seed(&mut self, flag: &str) -> u64 {
        let v = self.value(flag);
        parse_seed(&v).unwrap_or_else(|| {
            self.fail(&format!("{flag} needs a decimal or 0x-hex seed, got `{v}`"))
        })
    }

    /// Prints `error: msg` and the usage message, then exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}\n{}", self.usage);
        std::process::exit(2)
    }

    /// Rejects a flag the binary does not know.
    pub fn unknown(&self, flag: &str) -> ! {
        self.fail(&format!("unknown argument {flag}"))
    }
}

/// Parses a seed written in decimal or as `0x` hex (the form verdict
/// lines print).
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Prints `error: msg` and exits 2: the code every binary reserves for
/// configuration and I/O errors.
pub fn exit_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Writes `contents` to `path`, creating missing parent directories; an
/// unwritable path exits 2 naming it.
pub fn write_or_exit(path: &Path, contents: impl AsRef<[u8]>) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(path, contents) {
        exit_error(&format!("cannot write {}: {e}", path.display()));
    }
}

/// Whether `EMCC_BLESS` asks to re-bless a snapshot or baseline: set,
/// non-empty and not `0`.
pub fn bless_requested() -> bool {
    std::env::var("EMCC_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Compares `actual` with the committed snapshot at `path`; when
/// [`bless_requested`], writes `actual` there instead. `bless` is the
/// command that re-blesses it.
///
/// # Panics
///
/// If the snapshot cannot be read or written, or differs from `actual`:
/// the message names the first differing line.
pub fn check_snapshot(path: &Path, actual: &str, bless: &str) {
    if bless_requested() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create snapshot dir");
        }
        std::fs::write(path, actual).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "snapshot {} unreadable ({e}) — run `{bless}` to create it",
            path.display()
        )
    });
    if actual == expected {
        return;
    }
    let first_diff = actual
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (a, e))| a != e)
        .map(|(n, (a, e))| format!("line {}: got `{a}`, snapshot `{e}`", n + 1))
        .unwrap_or_else(|| {
            format!(
                "lengths differ ({} vs {} lines)",
                actual.lines().count(),
                expected.lines().count()
            )
        });
    panic!(
        "{} drifted from its committed snapshot (`{bless}` regenerates it after review):\n\
         {first_diff}",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("50341"), Some(0xC4A5));
        assert_eq!(parse_seed("0xC4A5"), Some(50341));
        assert_eq!(
            parse_seed("0x63cbe1e459320dd7"),
            Some(0x63cb_e1e4_5932_0dd7)
        );
        assert_eq!(parse_seed("0x"), None);
        assert_eq!(parse_seed("seven"), None);
        assert_eq!(parse_seed("-1"), None);
    }

    #[test]
    fn flags_and_values_come_in_order() {
        let args = Vec::from(["--cases", "4", "--seed", "0x10", "--out", "a/b"].map(String::from));
        let mut argv = Argv {
            usage: "usage: t".into(),
            args: args.into_iter(),
        };
        assert_eq!(argv.next_flag().as_deref(), Some("--cases"));
        assert_eq!(argv.count::<usize>("--cases"), 4);
        assert_eq!(argv.next_flag().as_deref(), Some("--seed"));
        assert_eq!(argv.seed("--seed"), 16);
        assert_eq!(argv.next_flag().as_deref(), Some("--out"));
        assert_eq!(argv.path("--out"), PathBuf::from("a/b"));
        assert_eq!(argv.next_flag(), None);
    }
}
