//! The argv cursor every binary in the workspace parses with.
//!
//! A binary matches its own flags and hands everything else to
//! [`Args::axis`], which recognises `--help` and the shared simulation
//! axes ([`SimParams::apply_flag`]) and rejects the rest. Values are
//! pulled only once a flag is known, so a malformed, missing or unknown
//! argument is always the same typed error and exit status 2.

use std::fmt::Display;
use std::str::FromStr;

use hmc_types::{HmcError, Result};

use crate::params::SimParams;

/// A cursor over one command line.
#[derive(Debug, Clone)]
pub struct Args {
    prog: &'static str,
    usage: &'static str,
    argv: Vec<String>,
    pos: usize,
    /// The shared-axis flags seen so far with their values, in
    /// command-line order, for [`Args::params_over`] to replay.
    axes: Vec<String>,
}

impl Args {
    /// A cursor over `argv` (program name already stripped). `usage` is
    /// the binary's own synopsis; `--help` prints it followed by
    /// [`SimParams::USAGE`].
    pub fn new(prog: &'static str, usage: &'static str, argv: Vec<String>) -> Args {
        Args {
            prog,
            usage,
            argv,
            pos: 0,
            axes: Vec::new(),
        }
    }

    /// A cursor over the process arguments.
    pub fn from_env(prog: &'static str, usage: &'static str) -> Args {
        Args::new(prog, usage, std::env::args().skip(1).collect())
    }

    /// The next argument, consumed.
    pub fn next_flag(&mut self) -> Option<String> {
        let arg = self.argv.get(self.pos).cloned();
        self.pos += arg.is_some() as usize;
        arg
    }

    /// The next argument, not consumed.
    pub fn peek(&self) -> Option<&str> {
        self.argv.get(self.pos).map(String::as_str)
    }

    /// Consume `flag`'s value and look it up with `by_name`; `choices`
    /// names the accepted spellings in the error.
    pub fn try_named<T>(
        &mut self,
        flag: &str,
        by_name: fn(&str) -> Option<T>,
        choices: &str,
    ) -> Result<T> {
        let v = self
            .next_flag()
            .ok_or_else(|| HmcError::InvalidConfig(format!("{flag} needs a value")))?;
        by_name(&v)
            .ok_or_else(|| HmcError::InvalidConfig(format!("{flag} needs {choices}, got {v:?}")))
    }

    /// Consume and parse `flag`'s value.
    pub fn try_value<T: FromStr>(&mut self, flag: &str) -> Result<T> {
        self.try_named(flag, |v| v.parse().ok(), "a valid value")
    }

    /// [`Args::try_value`], exiting with status 2 on a missing or
    /// malformed value.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        self.try_value(flag).unwrap_or_else(|e| self.bad_usage(e))
    }

    /// Print `prog: msg` and exit with status 2.
    pub fn die(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.prog);
        std::process::exit(2)
    }

    fn bad_usage(&self, msg: impl Display) -> ! {
        self.die(format_args!("{msg} (--help lists the flags)"))
    }

    /// Handle a flag the binary did not match itself: `--help` prints
    /// the usage and exits 0, a shared simulation-axis flag is checked
    /// and remembered for [`Args::params_over`], and anything else is an
    /// unknown argument (exit 2).
    pub fn axis(&mut self, flag: &str) {
        if matches!(flag, "--help" | "-h") {
            println!("{}\n\n{}", self.usage, SimParams::USAGE);
            std::process::exit(0);
        }
        let start = self.pos;
        match SimParams::default().apply_flag(flag, self) {
            Ok(true) => {
                self.axes.push(flag.to_string());
                self.axes.extend_from_slice(&self.argv[start..self.pos]);
            }
            Ok(false) => self.bad_usage(format_args!("unknown argument {flag}")),
            Err(e) => self.bad_usage(e),
        }
    }

    /// `base` with every shared-axis flag seen so far applied on top, in
    /// command-line order. Seeding `base` from a device config
    /// (`*HmcSim::new(..)?.params()`) is what makes the precedence
    /// *defaults < config file < command line*.
    pub fn params_over(&self, mut base: SimParams) -> SimParams {
        let mut replay = Args::new(self.prog, self.usage, self.axes.clone());
        while let Some(flag) = replay.next_flag() {
            base.apply_flag(&flag, &mut replay)
                .expect("checked when first seen");
        }
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::TimingKind;

    fn args(argv: &[&str]) -> Args {
        Args::new(
            "test",
            "usage: test",
            argv.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn values_are_typed_and_missing_or_malformed_is_an_error() {
        let mut a = args(&["7", "x"]);
        assert_eq!(a.try_value::<u32>("--n").unwrap(), 7);
        let bad = a.try_value::<u32>("--n").unwrap_err().to_string();
        assert!(bad.contains("--n") && bad.contains("\"x\""), "{bad}");
        let missing = a.try_value::<u32>("--n").unwrap_err().to_string();
        assert!(missing.contains("--n needs a value"), "{missing}");
    }

    #[test]
    fn axis_flags_replay_over_a_seeded_base_in_order() {
        let mut a = args(&[
            "--timing", "ddr", "--scale", "4", "--timing", "classic", "--check",
        ]);
        let mut scale = 0u32;
        while let Some(flag) = a.next_flag() {
            match flag.as_str() {
                "--scale" => scale = a.value(&flag),
                _ => a.axis(&flag),
            }
        }
        assert_eq!(scale, 4);
        let mut base = SimParams::default();
        base.timing.kind = TimingKind::Ddr;
        base.link_flits_per_cycle = Some(3);
        let p = a.params_over(base);
        assert_eq!(
            p.timing.kind,
            TimingKind::Classic,
            "the last flag wins over the base"
        );
        assert!(p.check_invariants);
        assert_eq!(
            p.link_flits_per_cycle,
            Some(3),
            "axes no flag named keep the base's value"
        );
    }
}
