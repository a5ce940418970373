//! The command interpreter.

use crate::table::render_text_table;
use banks_browse::{render, JoinSpec, ReverseJoinSpec, ViewSpec};
use banks_core::{Answer, Banks, BanksConfig, EdgeScoreMode, SearchArena, SearchStrategy};
use banks_storage::{Predicate, Value};

/// Interactive state: a loaded database plus the last search and the
/// current browsing view.
pub struct Shell {
    banks: Option<Banks>,
    config: BanksConfig,
    last_answers: Vec<Answer>,
    view_history: Vec<ViewSpec>,
    /// Persistent kernel scratch: every `search` in the session reuses
    /// the same Dijkstra state tables and cross-product buffers.
    arena: SearchArena,
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

impl Shell {
    /// A fresh shell with no database loaded.
    pub fn new() -> Shell {
        let mut config = BanksConfig::default();
        config.search.excluded_root_relations = vec!["Writes".into(), "Cites".into()];
        Shell {
            banks: None,
            config,
            last_answers: Vec::new(),
            view_history: Vec::new(),
            arena: SearchArena::new(),
        }
    }

    fn banks(&self) -> Result<&Banks, String> {
        Self::banks_ref(&self.banks)
    }

    /// Field-level form of [`Shell::banks`], so callers that also need
    /// `&mut self.arena` can split the borrow without duplicating the
    /// "no database loaded" message.
    fn banks_ref(banks: &Option<Banks>) -> Result<&Banks, String> {
        banks
            .as_ref()
            .ok_or_else(|| "no database loaded — try `open dblp`".to_string())
    }

    /// Execute one command line; returns the output text or an error
    /// message.
    pub fn exec(&mut self, line: &str) -> Result<String, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "help" => Ok(HELP.to_string()),
            "open" => self.cmd_open(rest),
            "save" => self.cmd_save(rest),
            "load" => self.cmd_load(rest),
            "schema" => self.cmd_schema(),
            "stats" => self.cmd_stats(),
            "search" => self.cmd_search(rest, SearchStrategy::Backward),
            "fsearch" => self.cmd_search(rest, SearchStrategy::Forward),
            "show" => self.cmd_show(rest),
            "summarize" => self.cmd_summarize(),
            "config" => self.cmd_config(rest),
            "browse" => self.cmd_browse(rest),
            "view" => self.cmd_view(),
            "drop" => self.with_view(rest, |spec, arg| {
                let col: u32 = parse(arg)?;
                if !spec.dropped.contains(&col) {
                    spec.dropped.push(col);
                }
                Ok(())
            }),
            "select" => self.cmd_select(rest),
            "join" => self.with_view(rest, |spec, arg| {
                spec.joins.push(JoinSpec {
                    fk_index: parse(arg)?,
                });
                Ok(())
            }),
            "rjoin" => self.cmd_rjoin(rest),
            "group" => self.with_view(rest, |spec, arg| {
                spec.group_by = Some(parse(arg)?);
                Ok(())
            }),
            "sort" => self.cmd_sort(rest),
            "page" => self.with_view(rest, |spec, arg| {
                spec.page = parse(arg)?;
                Ok(())
            }),
            "back" => self.cmd_back(),
            "quit" | "exit" => Ok("bye".to_string()),
            other => Err(format!("unknown command `{other}` — try `help`")),
        }
    }

    fn cmd_open(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        let what = parts.next().unwrap_or("");
        let seed: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1);
        let db = crate::corpus::open(what, seed)?;
        let tuples = db.total_tuples();
        let links = db.link_count();
        self.banks = Some(Banks::with_config(db, self.config.clone()).map_err(|e| e.to_string())?);
        self.last_answers.clear();
        self.view_history.clear();
        Ok(format!(
            "loaded {what} (seed {seed}): {tuples} tuples, {links} links"
        ))
    }

    fn cmd_save(&self, rest: &str) -> Result<String, String> {
        if rest.is_empty() {
            return Err("usage: save <file>".to_string());
        }
        let banks = self.banks()?;
        banks_persist::save_bundle(banks, 0, std::path::Path::new(rest))
            .map_err(|e| e.to_string())?;
        Ok(format!(
            "saved {} relations to {rest}",
            banks.db().relation_count()
        ))
    }

    fn cmd_load(&mut self, rest: &str) -> Result<String, String> {
        if rest.is_empty() {
            return Err("usage: load <file>".to_string());
        }
        let (banks, _) = banks_persist::load_bundle(std::path::Path::new(rest), &self.config)
            .map_err(|e| e.to_string())?;
        let tuples = banks.db().total_tuples();
        let links = banks.db().link_count();
        self.banks = Some(banks);
        self.last_answers.clear();
        self.view_history.clear();
        Ok(format!("loaded {rest}: {tuples} tuples, {links} links"))
    }

    fn cmd_schema(&self) -> Result<String, String> {
        let banks = self.banks()?;
        let mut out = String::new();
        for table in banks.db().relations() {
            let schema = table.schema();
            let cols: Vec<String> = schema
                .columns
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{i}:{}:{}", c.name, c.ty.name()))
                .collect();
            out.push_str(&format!(
                "{} ({} tuples)\n  columns: {}\n",
                schema.name,
                table.len(),
                cols.join(", ")
            ));
            for (i, fk) in schema.foreign_keys.iter().enumerate() {
                out.push_str(&format!(
                    "  fk#{i}: ({}) → {}\n",
                    fk.columns
                        .iter()
                        .map(|&c| schema.columns[c].name.clone())
                        .collect::<Vec<_>>()
                        .join(","),
                    fk.ref_relation
                ));
            }
        }
        Ok(out)
    }

    fn cmd_stats(&self) -> Result<String, String> {
        let banks = self.banks()?;
        let graph = banks.tuple_graph().graph();
        Ok(format!(
            "graph: {} nodes, {} edges\nmemory: {:.2} MB (graph + rid maps) + {:.2} MB (keyword index)\nindex: {} distinct tokens, {} postings",
            graph.node_count(),
            graph.edge_count(),
            banks.tuple_graph().memory_bytes() as f64 / 1e6,
            banks.text_index().memory_bytes() as f64 / 1e6,
            banks.text_index().distinct_tokens(),
            banks.text_index().posting_count(),
        ))
    }

    fn cmd_search(&mut self, query: &str, strategy: SearchStrategy) -> Result<String, String> {
        if query.is_empty() {
            return Err("usage: search <keywords…>".to_string());
        }
        let banks = Self::banks_ref(&self.banks)?;
        let parsed = banks.parse(query).map_err(|e| e.to_string())?;
        let outcome = banks
            .search_parsed_in(&parsed, strategy, &self.config, &mut self.arena)
            .map_err(|e| e.to_string())?;
        let mut out = format!(
            "{} answers ({} iterators, {} nodes settled, {} trees generated)\n",
            outcome.answers.len(),
            outcome.stats.iterators,
            outcome.stats.pops,
            outcome.stats.trees_generated
        );
        for (i, answer) in outcome.answers.iter().enumerate() {
            let rid = banks.tuple_graph().rid(answer.tree.root);
            out.push_str(&format!(
                "{:>2}. [{:.3}] {}\n",
                i + 1,
                answer.relevance,
                banks.db().describe_tuple(rid).map_err(|e| e.to_string())?
            ));
        }
        out.push_str("use `show <n>` to expand an answer\n");
        self.last_answers = outcome.answers;
        Ok(out)
    }

    fn cmd_show(&self, rest: &str) -> Result<String, String> {
        let n: usize = parse(rest)?;
        let answer = self
            .last_answers
            .get(n.wrapping_sub(1))
            .ok_or_else(|| format!("no answer #{n} — run `search` first"))?;
        Ok(self.banks()?.render_answer(answer))
    }

    fn cmd_summarize(&self) -> Result<String, String> {
        let banks = self.banks()?;
        if self.last_answers.is_empty() {
            return Err("no answers to summarize — run `search` first".to_string());
        }
        let mut out = String::new();
        for group in banks.summarize(&self.last_answers) {
            out.push_str(&format!(
                "{} — {} answers, best relevance {:.3}\n",
                group.label,
                group.answers.len(),
                group.best_relevance
            ));
        }
        Ok(out)
    }

    fn cmd_config(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        match (parts.next(), parts.next()) {
            (None, _) => Ok(format!(
                "lambda {}  edge-log {}  k {}  heap {}",
                self.config.score.lambda,
                matches!(self.config.score.edge_score, EdgeScoreMode::Log),
                self.config.search.max_results,
                self.config.search.output_heap_size,
            )),
            (Some("lambda"), Some(v)) => {
                let lambda: f64 = parse(v)?;
                if !(0.0..=1.0).contains(&lambda) {
                    return Err("lambda must be in [0,1]".to_string());
                }
                self.config.score.lambda = lambda;
                Ok(format!("lambda = {lambda}"))
            }
            (Some("edge-log"), Some(v)) => {
                self.config.score.edge_score = if v == "on" {
                    EdgeScoreMode::Log
                } else {
                    EdgeScoreMode::Linear
                };
                Ok(format!("edge-log = {v}"))
            }
            (Some("k"), Some(v)) => {
                self.config.search.max_results = parse(v)?;
                Ok(format!("k = {v}"))
            }
            (Some("heap"), Some(v)) => {
                self.config.search.output_heap_size = parse(v)?;
                Ok(format!("heap = {v}"))
            }
            (Some(other), _) => Err(format!("unknown config `{other}` (lambda|edge-log|k|heap)")),
        }
    }

    fn cmd_browse(&mut self, rest: &str) -> Result<String, String> {
        let banks = self.banks()?;
        let rel = banks.db().relation_id(rest).map_err(|e| e.to_string())?;
        self.view_history = vec![ViewSpec::relation(rel)];
        self.cmd_view()
    }

    fn current_view(&self) -> Result<&ViewSpec, String> {
        self.view_history
            .last()
            .ok_or_else(|| "no view open — try `browse <relation>`".to_string())
    }

    fn cmd_view(&self) -> Result<String, String> {
        let banks = self.banks()?;
        let spec = self.current_view()?;
        let view = render(banks.db(), spec).map_err(|e| e.to_string())?;
        Ok(render_text_table(&view))
    }

    fn with_view(
        &mut self,
        arg: &str,
        f: impl FnOnce(&mut ViewSpec, &str) -> Result<(), String>,
    ) -> Result<String, String> {
        let mut spec = self.current_view()?.clone();
        f(&mut spec, arg)?;
        self.view_history.push(spec);
        self.cmd_view()
    }

    fn cmd_select(&mut self, rest: &str) -> Result<String, String> {
        let parts: Vec<&str> = rest.splitn(3, char::is_whitespace).collect();
        if parts.len() < 3 {
            return Err("usage: select <col#> <=|!=|<|<=|>|>=|~> <value>".to_string());
        }
        let col: u32 = parse(parts[0])?;
        let value = parse_value(parts[2]);
        let pred = match parts[1] {
            "=" => Predicate::Eq(value),
            "!=" => Predicate::Ne(value),
            "<" => Predicate::Lt(value),
            "<=" => Predicate::Le(value),
            ">" => Predicate::Gt(value),
            ">=" => Predicate::Ge(value),
            "~" => Predicate::Contains(parts[2].to_string()),
            op => return Err(format!("unknown operator `{op}`")),
        };
        self.with_view("", move |spec, _| {
            spec.selections.push((col, pred));
            Ok(())
        })
    }

    fn cmd_rjoin(&mut self, rest: &str) -> Result<String, String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        if parts.len() != 2 {
            return Err("usage: rjoin <relation> <fk#>".to_string());
        }
        let rel = self
            .banks()?
            .db()
            .relation_id(parts[0])
            .map_err(|e| e.to_string())?;
        let fk: usize = parse(parts[1])?;
        self.with_view("", move |spec, _| {
            spec.reverse_join = Some(ReverseJoinSpec {
                relation: rel,
                fk_index: fk,
            });
            Ok(())
        })
    }

    fn cmd_sort(&mut self, rest: &str) -> Result<String, String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let col: usize = parse(parts.first().copied().unwrap_or(""))?;
        let ascending = parts.get(1).copied() != Some("desc");
        self.with_view("", move |spec, _| {
            spec.sort = Some((col, ascending));
            Ok(())
        })
    }

    fn cmd_back(&mut self) -> Result<String, String> {
        if self.view_history.len() <= 1 {
            return Err("already at the first view".to_string());
        }
        self.view_history.pop();
        self.cmd_view()
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad argument `{s}`"))
}

fn parse_value(s: &str) -> Value {
    if let Ok(i) = s.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(f) = s.parse::<f64>() {
        Value::Float(f)
    } else if s == "null" {
        Value::Null
    } else {
        Value::text(s)
    }
}

/// Help text.
pub const HELP: &str = "\
commands:
  open <dblp|dblp-small|thesis|tpcd> [seed]   load a synthetic database
  save <file> / load <file>                   snapshot bundle (as banks snapshot)
  schema                                      list relations and foreign keys
  stats                                       graph/index sizes
  search <keywords…>                          backward expanding search (§3)
  fsearch <keywords…>                         forward search (§7)
  show <n>                                    expand answer n as a tree
  summarize                                   group answers by tree shape (§7)
  config [lambda|edge-log|k|heap <value>]     show or set parameters
  browse <relation>                           open a browsing view (§4)
  view                                        re-render the current view
  drop <col#> | select <col#> <op> <value>    projection / selection
  join <fk#> | rjoin <relation> <fk#>         joins along foreign keys
  group <col#> | sort <col#> [asc|desc]       grouping / sorting
  page <n> | back                             pagination / history
  quit

server mode (not a shell command):
  banks serve [--corpus dblp|dblp-small|thesis|tpcd] [--seed N]
              [--addr HOST:PORT] [--workers N]
              [--cache-capacity N] [--cache-shards N] [--data-dir DIR]
              [--no-fsync] [--compact-wal-batches N] [--no-ingest]
              [--paged] [--memory-budget BYTES] [--log-level LEVEL]
    serves /search, /node, /stats, /metrics, /epochs, /health,
    /debug/slow, POST /ingest
    --log-level error|warn|info|debug filters the structured stderr
    log (also the BANKS_LOG environment variable)
    --data-dir enables durability: full-system snapshot bundle + WAL'd
    ingestion + crash recovery (banks-persist)
    --paged serves out of core from the bundle file (banks-pager);
    --memory-budget caps decoded graph segments (e.g. 256m, default)

corpus generation (not a shell command):
  banks datagen --tuples N --out DIR [--seed N] [--shard-tuples N]
    streams an exact-size DBLP-shaped corpus to disk; the output
    directory is accepted wherever a corpus name is (open, serve)

snapshot bundles (not a shell command):
  banks snapshot save --corpus NAME [--seed N] [--epoch N] --out PATH
  banks snapshot load PATH [--query \"keywords…\"]
  banks snapshot inspect PATH
";

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded() -> Shell {
        let mut shell = Shell::new();
        shell.exec("open dblp 1").unwrap();
        shell
    }

    #[test]
    fn open_and_stats() {
        let mut shell = loaded();
        let out = shell.exec("stats").unwrap();
        assert!(out.contains("nodes"));
        assert!(out.contains("tokens"));
    }

    #[test]
    fn commands_require_database() {
        let mut shell = Shell::new();
        assert!(shell.exec("search mohan").is_err());
        assert!(shell.exec("schema").is_err());
        assert!(shell.exec("help").unwrap().contains("commands"));
    }

    #[test]
    fn search_show_summarize_flow() {
        let mut shell = loaded();
        let out = shell.exec("search soumen sunita").unwrap();
        assert!(out.contains("answers"));
        assert!(out.contains("ChakrabartiSD98"));
        let tree = shell.exec("show 1").unwrap();
        assert!(tree.contains("*Author("));
        let groups = shell.exec("summarize").unwrap();
        assert!(groups.contains("Paper(Writes(Author),Writes(Author))"));
    }

    #[test]
    fn forward_search_command() {
        let mut shell = loaded();
        let out = shell.exec("fsearch author sunita").unwrap();
        assert!(out.contains("answers"));
    }

    #[test]
    fn config_roundtrip_and_validation() {
        let mut shell = loaded();
        assert!(shell.exec("config lambda 0.5").unwrap().contains("0.5"));
        assert!(shell.exec("config").unwrap().contains("lambda 0.5"));
        assert!(shell.exec("config lambda 2").is_err());
        assert!(shell.exec("config edge-log off").is_ok());
        assert!(shell.exec("config k 5").is_ok());
        let out = shell.exec("search mohan").unwrap();
        assert!(out.lines().count() <= 9, "k=5 limits the listing: {out}");
    }

    #[test]
    fn browse_flow() {
        let mut shell = Shell::new();
        shell.exec("open thesis 1").unwrap();
        let out = shell.exec("browse Student").unwrap();
        assert!(out.contains("== Student =="));
        let out = shell.exec("group 2").unwrap();
        assert!(out.contains("count"));
        let out = shell.exec("back").unwrap();
        assert!(out.contains("Student.RollNo"));
        let out = shell.exec("select 2 = DEPTCSE").unwrap();
        assert!(out.contains("DEPTCSE"));
        let out = shell.exec("rjoin Thesis 0").unwrap();
        assert!(out.contains("Thesis.Title"));
        assert!(shell.exec("sort 0 desc").is_ok());
        assert!(shell.exec("page 1").is_ok());
        assert!(shell.exec("drop 3").is_ok());
    }

    #[test]
    fn errors_are_friendly() {
        let mut shell = loaded();
        assert!(shell
            .exec("frobnicate")
            .unwrap_err()
            .contains("unknown command"));
        assert!(shell.exec("show 99").is_err());
        assert!(shell.exec("browse Nonexistent").is_err());
        assert!(shell.exec("select 0 ?? x").is_err());
        assert!(shell.exec("back").is_err(), "no view yet");
        assert!(shell.exec("open marsrover").is_err());
        assert!(shell.exec("").unwrap().is_empty());
        assert!(shell.exec("# comment").unwrap().is_empty());
    }

    #[test]
    fn save_load_bundle_roundtrip() {
        let path = std::env::temp_dir().join(format!("banks_cli_{}.banks", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let mut shell = loaded();
        let before = shell.exec("search soumen sunita").unwrap();
        shell.exec(&format!("save {path_str}")).unwrap();
        let info = banks_persist::inspect_bundle(&path).unwrap();
        assert_eq!(
            (info.version, info.meta.epoch),
            (3, 0),
            "a v3 bundle at epoch 0"
        );

        let mut restored = Shell::new();
        let out = restored.exec(&format!("load {path_str}")).unwrap();
        assert!(out.contains("tuples"));
        let after = restored.exec("search soumen sunita").unwrap();
        assert_eq!(before, after, "restored database answers identically");
        std::fs::remove_file(&path).ok();

        let dir = std::env::temp_dir();
        assert!(restored.exec(&format!("load {}", dir.display())).is_err());
        assert!(
            restored.exec(&format!("load {path_str}")).is_err(),
            "missing file"
        );
    }

    #[test]
    fn every_dataset_opens() {
        for ds in ["dblp", "thesis", "tpcd"] {
            let mut shell = Shell::new();
            let out = shell.exec(&format!("open {ds} 2")).unwrap();
            assert!(out.contains("tuples"), "{ds}: {out}");
        }
    }
}
