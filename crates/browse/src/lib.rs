//! # banks-browse
//!
//! The **B** of BANKS: the automatic data/schema browsing layer of §4 of
//! *Keyword Searching and Browsing in Databases using BANKS* (ICDE 2002).
//!
//! "The browsing system automatically generates browsable views of
//! database relations and query results; no content programming or user
//! intervention is required." This crate reproduces that model as a
//! library:
//!
//! * [`hyperlink`] — links derived purely from the schema: every foreign
//!   key value links to its referenced tuple; every primary key can be
//!   browsed backwards, organized by referencing relation;
//! * [`view`] — declarative table views with the §4 controls: project
//!   away columns, impose selections, join along foreign keys (both
//!   directions), group by a column, sort, paginate;
//! * [`session`] — a navigable browsing session with history;
//! * [`templates`] — the four predefined templates: cross-tabs, group-by
//!   hierarchies, folder views and charts, composable through a named
//!   template registry;
//! * [`html`] — the presentation layer (the original system's servlet
//!   output), rendering everything to HTML strings with `banks://` links.
//!
//! ```
//! use banks_browse::{Session, html};
//! use banks_datagen::thesis::{generate, ThesisConfig};
//!
//! let dataset = generate(ThesisConfig::tiny(42)).unwrap();
//! let mut session = Session::open(&dataset.db, "Student").unwrap();
//! session.group_by(2); // group students by department
//! let view = session.render().unwrap();
//! let page = html::render_view(&view);
//! assert!(page.contains("banks://group/"));
//! ```

#![forbid(unsafe_code)]

pub mod html;
pub mod hyperlink;
pub mod session;
pub mod templates;
pub mod view;

pub use hyperlink::Hyperlink;
pub use session::Session;
pub use templates::{
    ChartKind, ChartSpec, Crosstab, CrosstabSpec, FolderSpec, GroupBySpec, Measure, TemplateOutput,
    TemplateRegistry, TemplateSpec,
};
pub use view::{render, Cell, JoinSpec, RenderedView, ReverseJoinSpec, ViewSpec};
