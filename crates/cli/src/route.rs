//! The `banks route` subcommand: the cluster front door
//! (`banks-router`) as a process.
//!
//! ```text
//! banks route --addr 127.0.0.1:7330 \
//!     --leader 127.0.0.1:7331 \
//!     --follower 127.0.0.1:7332 --follower 127.0.0.1:7333
//! ```
//!
//! Clients talk to the router exactly like a single `banks serve`:
//! `GET /search` fans out over healthy, caught-up followers by
//! cache-key affinity (falling back to the leader), `POST /ingest` and
//! `/epochs` always reach the leader, and `/health` + `/stats` report
//! the router's own registry. See `banks-router` for the routing,
//! ejection, and staleness rules.

use crate::{arm_faults_from_env, flag_number, flag_value};
use banks_router::{Router, RouterConfig};
use banks_util::log_info;
use std::time::Duration;

/// Parsed `route` arguments.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RouteArgs {
    /// Bind address of the router itself.
    pub addr: String,
    /// Leader address.
    pub leader: String,
    /// Follower addresses (`--follower`, repeatable).
    pub followers: Vec<String>,
    /// Worker threads.
    pub workers: usize,
    /// `/health` probe cadence in milliseconds.
    pub probe_interval_ms: u64,
    /// Consecutive probe failures before ejection.
    pub eject_after: u32,
    /// Max epochs a follower may lag and still serve reads.
    pub staleness_bound: u64,
    /// Log verbosity override (`error|warn|info|debug`); defaults to
    /// the `BANKS_LOG` environment variable, then `info`.
    pub log_level: Option<banks_util::log::Level>,
}

impl Default for RouteArgs {
    fn default() -> Self {
        let defaults = RouterConfig::default();
        RouteArgs {
            addr: "127.0.0.1:7330".to_string(),
            leader: defaults.leader,
            followers: Vec::new(),
            workers: defaults.workers,
            probe_interval_ms: defaults.probe_interval.as_millis() as u64,
            eject_after: defaults.eject_after,
            staleness_bound: defaults.staleness_bound,
            log_level: None,
        }
    }
}

impl RouteArgs {
    /// Parse `--flag value` pairs (everything after `banks route`).
    pub(crate) fn parse(args: &[String]) -> Result<RouteArgs, String> {
        let mut parsed = RouteArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--addr" => parsed.addr = flag_value(&mut it, "--addr")?,
                "--leader" => parsed.leader = flag_value(&mut it, "--leader")?,
                "--follower" => parsed.followers.push(flag_value(&mut it, "--follower")?),
                "--workers" => parsed.workers = flag_number(&mut it, "--workers")?,
                "--probe-interval-ms" => {
                    parsed.probe_interval_ms = flag_number(&mut it, "--probe-interval-ms")?
                }
                "--eject-after" => parsed.eject_after = flag_number(&mut it, "--eject-after")?,
                "--staleness-bound" => {
                    parsed.staleness_bound = flag_number(&mut it, "--staleness-bound")?
                }
                "--log-level" => {
                    let raw = flag_value(&mut it, "--log-level")?;
                    parsed.log_level =
                        Some(banks_util::log::Level::parse(&raw).ok_or_else(|| {
                            format!("--log-level must be error|warn|info|debug, got `{raw}`")
                        })?)
                }
                other => return Err(format!("unknown route flag `{other}` — see `banks help`")),
            }
        }
        Ok(parsed)
    }

    fn config(&self) -> RouterConfig {
        RouterConfig {
            addr: self.addr.clone(),
            leader: self.leader.clone(),
            followers: self.followers.clone(),
            workers: self.workers,
            probe_interval: Duration::from_millis(self.probe_interval_ms.max(1)),
            eject_after: self.eject_after.max(1),
            staleness_bound: self.staleness_bound,
            ..RouterConfig::default()
        }
    }
}

/// Bind the router for the given arguments. Returns the running router
/// so callers (tests, embedding processes) control its lifetime.
pub(crate) fn start(args: &RouteArgs) -> Result<Router, String> {
    if let Some(level) = args.log_level {
        banks_util::log::set_level(level);
    }
    let router = Router::bind(args.config()).map_err(|e| format!("bind {}: {e}", args.addr))?;
    log_info!(
        "route",
        "routing on http://{} → leader {} + {} follower(s) \
         (probe every {}ms, eject after {}, staleness bound {} epoch(s))",
        router.local_addr(),
        args.leader,
        args.followers.len(),
        args.probe_interval_ms,
        args.eject_after,
        args.staleness_bound,
    );
    Ok(router)
}

/// Foreground entry point for `banks route`: route until killed.
pub fn run(args: &[String]) -> Result<(), String> {
    let args = RouteArgs::parse(args)?;
    arm_faults_from_env("route")?;
    let router = start(&args)?;
    router.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_overrides() {
        assert_eq!(RouteArgs::parse(&[]).unwrap(), RouteArgs::default());
        let args = RouteArgs::parse(&strings(&[
            "--addr",
            "127.0.0.1:0",
            "--leader",
            "127.0.0.1:9001",
            "--follower",
            "127.0.0.1:9002",
            "--follower",
            "127.0.0.1:9003",
            "--workers",
            "2",
            "--probe-interval-ms",
            "100",
            "--eject-after",
            "3",
            "--staleness-bound",
            "4",
        ]))
        .unwrap();
        assert_eq!(args.leader, "127.0.0.1:9001");
        assert_eq!(args.followers, vec!["127.0.0.1:9002", "127.0.0.1:9003"]);
        assert_eq!(args.workers, 2);
        assert_eq!(args.probe_interval_ms, 100);
        assert_eq!(args.eject_after, 3);
        assert_eq!(args.staleness_bound, 4);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(RouteArgs::parse(&strings(&["--workers"])).is_err());
        assert!(RouteArgs::parse(&strings(&["--workers", "x"])).is_err());
        assert!(RouteArgs::parse(&strings(&["--staleness-bound", "x"])).is_err());
        assert!(RouteArgs::parse(&strings(&["--wat"])).is_err());
    }

    #[test]
    fn start_binds_ephemeral_port() {
        let args = RouteArgs {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..RouteArgs::default()
        };
        let router = start(&args).unwrap();
        assert_ne!(router.local_addr().port(), 0);
        router.shutdown();
    }
}
