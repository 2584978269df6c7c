//! Command-line flags, parsed the same way by every harness binary.
//!
//! A binary walks its arguments with [`Flags`] in a plain `match`,
//! pulling each flag's value with [`Flags::value`] or
//! [`Flags::choice`], and hands anything no arm claims to
//! [`Flags::other`]. Every usage error — an unknown flag or command, a
//! flag missing its value, a value that does not parse — prints one
//! line and exits 2 before any work starts ([`usage_error`]); `--help`
//! / `-h` prints the usage text and exits 0. The eleven workload flags
//! `loadgen` and `cbm-node run` share are parsed once, by
//! [`WorkloadFlags`].

use crate::Workload;
use cbm_store::{BatchPolicy, Mode, ShardConfig, StoreConfig};

/// Print `msg` and exit 2: the one exit path for operator errors.
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The arguments of one binary or subcommand, consumed front to back.
pub struct Flags {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
}

impl Flags {
    /// This process's arguments after the program name; `usage` is
    /// what `--help` prints.
    pub fn from_env(usage: &'static str) -> Flags {
        Flags {
            usage,
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// The value after `flag`, mapped by `read`; a missing value or
    /// one `read` rejects is a usage error saying the flag needs
    /// `what`.
    pub fn choice<T>(&mut self, flag: &str, what: &str, read: impl FnOnce(&str) -> Option<T>) -> T {
        match self.args.next().as_deref().and_then(read) {
            Some(v) => v,
            None => usage_error(format!("{flag} needs {what}")),
        }
    }

    /// The value after `flag`, parsed as `T`.
    pub fn value<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> T {
        self.choice(flag, what, |v| v.parse().ok())
    }

    /// An argument no `match` arm claimed: `--help` / `-h` print the
    /// usage and exit 0, anything else is a usage error.
    pub fn other(&self, arg: &str) -> ! {
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        usage_error(format!("unknown argument '{arg}' (see --help)"))
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

/// The eleven workload flags of a single-configuration run (`loadgen`'s
/// `custom` leg, `cbm-node run`): `--workers --objects --ops --seed
/// --rf --locality --mode --batch --read-ratio --remote-read-ratio
/// --monitor`.
#[derive(Debug, Clone)]
pub struct WorkloadFlags {
    /// The engine configuration the flags set, on top of
    /// [`StoreConfig::default`].
    pub cfg: StoreConfig,
    /// `--read-ratio` (default 0.5).
    pub read_ratio: f64,
    /// `--remote-read-ratio` (default 0.05).
    pub remote_read_ratio: f64,
    /// Whether any flag but `--monitor` was given: `loadgen` then runs
    /// this one configuration instead of its matrix.
    pub custom: bool,
}

impl Default for WorkloadFlags {
    fn default() -> Self {
        WorkloadFlags {
            cfg: StoreConfig::default(),
            read_ratio: 0.5,
            remote_read_ratio: 0.05,
            custom: false,
        }
    }
}

impl WorkloadFlags {
    /// Consume `flag` and its value if it is a workload flag; `false`
    /// leaves it to the caller.
    pub fn take(&mut self, flag: &str, args: &mut Flags) -> bool {
        let ratio = |args: &mut Flags| args.value::<f64>(flag, "a number in [0,1]").clamp(0.0, 1.0);
        let cfg = &mut self.cfg;
        match flag {
            "--monitor" => {
                cfg.verify.monitor = true;
                return true;
            }
            "--workers" => cfg.workers = args.value(flag, "a number"),
            "--objects" => cfg.objects = args.value::<usize>(flag, "a number").max(1),
            "--ops" => cfg.ops_per_worker = args.value(flag, "a number"),
            "--seed" => cfg.seed = args.value(flag, "a number"),
            "--rf" => cfg.sharding = ShardConfig::rf(args.value(flag, "a number")),
            "--locality" => cfg.sharding.locality = args.value(flag, "a number"),
            "--mode" => {
                cfg.mode = args.choice(flag, "cc or ccv", |v| match v {
                    "cc" => Some(Mode::Causal),
                    "ccv" => Some(Mode::Convergent),
                    _ => None,
                })
            }
            "--batch" => {
                cfg.batch = args.choice(flag, "a number or 'off'", |v| match v {
                    "off" => Some(BatchPolicy::Off),
                    k => k.parse().ok().map(BatchPolicy::Every),
                })
            }
            "--read-ratio" => self.read_ratio = ratio(args),
            "--remote-read-ratio" => self.remote_read_ratio = ratio(args),
            _ => return false,
        }
        self.custom = true;
        true
    }

    /// The configured engine, its verification cadence clamped to at
    /// most half the run so at least two windows close.
    pub fn config(&self) -> StoreConfig {
        let mut cfg = self.cfg.clone();
        cfg.verify.every_ops = cfg.verify.every_ops.min(cfg.ops_per_worker / 2).max(1);
        cfg
    }

    /// The register workload the two ratio flags describe.
    pub fn register(&self) -> Workload {
        Workload::Register {
            read_ratio: self.read_ratio,
            remote_read_ratio: self.remote_read_ratio,
        }
    }
}
