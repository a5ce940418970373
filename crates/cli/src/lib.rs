//! # banks-cli
//!
//! An interactive shell over the BANKS system — the terminal counterpart
//! of the paper's web interface. The command interpreter ([`Shell`]) is a
//! plain function from command lines to output strings, so the whole
//! surface is unit-testable; `src/main.rs` wraps it in a stdin REPL.
//!
//! ```
//! use banks_cli::Shell;
//! let mut shell = Shell::new();
//! shell.exec("open dblp 1").unwrap();
//! let out = shell.exec("search soumen sunita").unwrap();
//! assert!(out.contains("ChakrabartiSD98"));
//! ```

#![forbid(unsafe_code)]

pub(crate) mod corpus;
pub mod datagen;
pub mod ingest;
pub mod route;
pub mod serve;
pub mod shell;
pub mod snapshot;
pub(crate) mod table;

pub use shell::Shell;

use std::slice::Iter;
use std::str::FromStr;

/// Take the value after a command-line `--flag` from `args`.
fn flag_value(args: &mut Iter<'_, String>, flag: &str) -> Result<String, String> {
    args.next()
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Take the value after a numeric `--flag` from `args` and parse it.
fn flag_number<T: FlagNumber>(args: &mut Iter<'_, String>, flag: &str) -> Result<T, String> {
    flag_value(args, flag)?
        .parse()
        .map_err(|_| format!("{flag} must be {}", T::KIND))
}

/// A numeric flag type, and how a parse error names what it expects.
trait FlagNumber: FromStr {
    const KIND: &'static str;
}

impl FlagNumber for u32 {
    const KIND: &'static str = "an integer";
}

impl FlagNumber for u64 {
    const KIND: &'static str = "an integer";
}

impl FlagNumber for usize {
    const KIND: &'static str = "an integer";
}

impl FlagNumber for f64 {
    const KIND: &'static str = "a number";
}

/// Arm the fault sites `BANKS_FAULTS` names, once at startup. A spec
/// with a bad entry refuses to start rather than silently arming less.
fn arm_faults_from_env(component: &str) -> Result<(), String> {
    let spec = match std::env::var("BANKS_FAULTS") {
        Ok(spec) => spec,
        Err(std::env::VarError::NotPresent) => return Ok(()),
        Err(std::env::VarError::NotUnicode(_)) => {
            return Err("BANKS_FAULTS is not valid UTF-8".to_string())
        }
    };
    let armed = banks_util::fault::arm_spec(&spec)?;
    if !armed.is_empty() {
        banks_util::log_warn!(component, "BANKS_FAULTS armed: {}", armed.join(", "));
    }
    Ok(())
}
