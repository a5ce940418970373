//! Browsing (§4): a session over the thesis database — the Figure 4 flow
//! (students joined with theses, columns dropped), backward browsing of a
//! primary key, the four templates, and an HTML dump.
//!
//! ```text
//! cargo run -p banks-testsuite --example thesis_browsing [out.html]
//! ```

use banks_browse::{
    html, ChartKind, ChartSpec, CrosstabSpec, FolderSpec, GroupBySpec, Hyperlink, Measure, Session,
    TemplateRegistry, TemplateSpec,
};
use banks_datagen::thesis::{generate, ThesisConfig};
use banks_storage::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = generate(ThesisConfig::tiny(1))?;
    let db = &dataset.db;

    // -- Figure 4: browse students, join theses, drop columns -----------
    let mut session = Session::open(db, "Student")?;
    let thesis_rel = db.relation_id("Thesis")?;
    session.reverse_join(thesis_rel, 0); // theses by their student FK
    session.drop_column(3); // hide ProgramId
    let view = session.render()?;
    println!("== {} ({} rows) ==", view.title, view.total_rows);
    println!("{}", view.columns.join(" | "));
    for row in view.rows.iter().take(5) {
        let texts: Vec<&str> = row.iter().map(|c| c.text.as_str()).collect();
        println!("{}", texts.join(" | "));
    }
    println!("…page {} of {}\n", view.page + 1, view.page_count);

    // -- backward browsing: who references the CSE department? ----------
    let cse = db
        .relation("Department")?
        .lookup_pk(&[Value::text(&dataset.planted.cse_dept)])
        .expect("planted department");
    println!(
        "== backward browsing menu for {} ==",
        db.describe_tuple(cse)?
    );
    for entry in session.backref_menu(cse) {
        println!(
            "  {} via fk#{} — {} tuples",
            entry.relation_name, entry.fk_index, entry.count
        );
    }
    println!();

    // -- follow a hyperlink chain ----------------------------------------
    let mut nav = Session::open(db, "Thesis")?;
    let first_view = nav.render()?;
    if let Some(link) = first_view.rows[0][2].link.clone() {
        nav.follow(&link)?; // thesis → its student
        let student_view = nav.render()?;
        println!(
            "followed {} → {} ({} row)",
            link.href(),
            student_view.title,
            student_view.total_rows
        );
        nav.back();
        println!("back to {}\n", nav.render()?.title);
    }

    // -- the four templates (§4) -----------------------------------------
    let student_rel = db.relation_id("Student")?;
    let mut registry = TemplateRegistry::new();
    registry.register(
        "students-crosstab",
        TemplateSpec::Crosstab(CrosstabSpec {
            relation: student_rel,
            row_attr: 2, // DeptId
            col_attr: 3, // ProgramId
            measure: Measure::Count,
        }),
    );
    registry.register(
        "students-by-dept-program",
        TemplateSpec::GroupBy(GroupBySpec {
            relation: student_rel,
            levels: vec![2, 3],
        }),
    );
    registry.register(
        "students-folders",
        TemplateSpec::Folder(FolderSpec {
            relation: student_rel,
            levels: vec![2],
            max_leaves: 3,
        }),
    );
    registry.register(
        "students-chart",
        TemplateSpec::Chart(ChartSpec {
            relation: student_rel,
            label_attr: 2,
            measure: Measure::Count,
            kind: ChartKind::Bar,
        }),
    );
    println!("registered templates: {:?}\n", registry.names());

    // Resolve one through a hyperlink (templates are composable: links may
    // point at other templates).
    let link = Hyperlink::Template("students-chart".into());
    let spec = registry.resolve(&link).expect("registered");
    let output = banks_browse::templates::evaluate(db, spec)?;

    // -- HTML dump ---------------------------------------------------------
    let mut page = String::from("<html><body><h1>BANKS browsing demo</h1>\n");
    page.push_str(&html::render_view(&view));
    if let banks_browse::TemplateOutput::Chart(chart) = &output {
        page.push_str(&html::render_chart(chart));
    }
    for name in registry.names() {
        match registry.get(name).unwrap() {
            TemplateSpec::Crosstab(s) => {
                let ct = banks_browse::templates::crosstab::evaluate(db, s)?;
                page.push_str(&format!("<h2>{name}</h2>"));
                page.push_str(&html::render_crosstab(&ct));
            }
            TemplateSpec::Folder(s) => {
                let tree = banks_browse::templates::folder::evaluate(db, s)?;
                page.push_str(&format!("<h2>{name}</h2><ul>"));
                page.push_str(&html::render_folder(&tree));
                page.push_str("</ul>");
            }
            _ => {}
        }
    }
    page.push_str("</body></html>\n");

    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/banks_browse_demo.html".to_string());
    std::fs::write(&out_path, &page)?;
    println!("wrote {} bytes of HTML to {out_path}", page.len());
    Ok(())
}
