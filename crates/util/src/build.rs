//! Build identity, stamped at compile time.
//!
//! `/health` on every role reports [`version`] so an operator can tell
//! which build a node is running — previously impossible once more than
//! one binary was deployed.

/// Workspace crate version (`CARGO_PKG_VERSION`).
pub(crate) const PKG_VERSION: &str = env!("CARGO_PKG_VERSION");

/// `git describe --tags --always --dirty` at build time, or
/// `"unknown"` outside a git checkout (see `build.rs`).
pub(crate) const GIT_DESCRIBE: &str = env!("BANKS_GIT_DESCRIBE");

/// Human-readable build identity: `<version>+<git describe>`.
pub fn version() -> String {
    format!("{PKG_VERSION}+{GIT_DESCRIBE}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn version_embeds_both_parts() {
        let v = super::version();
        assert!(v.starts_with(super::PKG_VERSION));
        assert!(v.contains('+'));
        assert!(!super::GIT_DESCRIBE.is_empty());
    }
}
