//! The `banks` interactive shell.
//!
//! ```text
//! cargo run --release -p banks-cli
//! banks> open dblp
//! banks> search soumen sunita
//! banks> show 1
//! ```
//!
//! Also supports one-shot execution: `banks -c "open dblp; search mohan"`,
//! the HTTP server mode: `banks serve --corpus dblp --addr 127.0.0.1:7331`
//! (add `--data-dir DIR` for durable serving, `--follow LEADER:PORT` for
//! a read-only replica), the cluster front door:
//! `banks route --leader … --follower …`,
//! delta ingestion: `banks ingest --file deltas.json --server 127.0.0.1:7331`,
//! streaming corpus generation: `banks datagen --tuples N --out DIR`,
//! and snapshot bundles: `banks snapshot save|load|inspect …`.

use banks_cli::Shell;
use banks_util::log_error;
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Server mode: `banks serve [flags…]` (see banks_cli::serve).
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(err) = banks_cli::serve::run(&args[1..]) {
            log_error!("serve", "{err}");
            std::process::exit(1);
        }
        return;
    }

    // Router mode: `banks route [flags…]` (see banks_cli::route).
    if args.first().map(String::as_str) == Some("route") {
        if let Err(err) = banks_cli::route::run(&args[1..]) {
            log_error!("route", "{err}");
            std::process::exit(1);
        }
        return;
    }

    // Ingestion: `banks ingest [flags…]` (see banks_cli::ingest).
    if args.first().map(String::as_str) == Some("ingest") {
        if let Err(err) = banks_cli::ingest::run(&args[1..]) {
            log_error!("ingest", "{err}");
            std::process::exit(1);
        }
        return;
    }

    // Corpus generation: `banks datagen --tuples N --out DIR`
    // (see banks_cli::datagen).
    if args.first().map(String::as_str) == Some("datagen") {
        if let Err(err) = banks_cli::datagen::run(&args[1..]) {
            log_error!("datagen", "{err}");
            std::process::exit(1);
        }
        return;
    }

    // Snapshot bundles: `banks snapshot save|load|inspect …`
    // (see banks_cli::snapshot).
    if args.first().map(String::as_str) == Some("snapshot") {
        if let Err(err) = banks_cli::snapshot::run(&args[1..]) {
            log_error!("snapshot", "{err}");
            std::process::exit(1);
        }
        return;
    }

    let mut shell = Shell::new();

    // One-shot mode: -c "cmd; cmd; …"
    if args.first().map(String::as_str) == Some("-c") {
        let script = args.get(1).cloned().unwrap_or_default();
        for command in script.split(';') {
            match shell.exec(command) {
                Ok(out) => print_output(&out),
                Err(err) => {
                    eprintln!("error: {err}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }

    println!("BANKS — keyword searching and browsing in databases (ICDE 2002)");
    println!("type `help` for commands, `open dblp` to load a corpus\n");
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("banks> ");
        stdout.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        match shell.exec(trimmed) {
            Ok(out) => print_output(&out),
            Err(err) => println!("error: {err}"),
        }
    }
}

/// Print one command's output on its own lines: both the REPL and `-c`
/// go through here, so consecutive outputs never run together.
fn print_output(out: &str) {
    if !out.is_empty() {
        println!("{out}");
    }
}
