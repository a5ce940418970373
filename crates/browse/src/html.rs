//! HTML rendering of views and templates.
//!
//! The original BANKS served servlet-generated HTML; this module is the
//! equivalent presentation layer, turning [`RenderedView`]s and template
//! outputs into self-contained HTML fragments with `banks://` hyperlinks
//! (the navigation scheme of [`crate::hyperlink::Hyperlink::href`]).

use crate::templates::{ChartData, ChartKind, Crosstab, FolderNode};
use crate::view::RenderedView;
use std::fmt::Write as _;

/// Escape text for HTML.
pub(crate) fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a table view as an HTML `<table>` with pagination footer.
pub fn render_view(view: &RenderedView) -> String {
    let mut html = String::new();
    let _ = write!(
        html,
        "<h2>{}</h2>\n<table border=\"1\">\n<tr>",
        escape(&view.title)
    );
    for col in &view.columns {
        let _ = write!(html, "<th>{}</th>", escape(col));
    }
    html.push_str("</tr>\n");
    for row in &view.rows {
        html.push_str("<tr>");
        for cell in row {
            match &cell.link {
                Some(link) => {
                    let _ = write!(
                        html,
                        "<td><a href=\"{}\">{}</a></td>",
                        escape(&link.href()),
                        escape(&cell.text)
                    );
                }
                None => {
                    let _ = write!(html, "<td>{}</td>", escape(&cell.text));
                }
            }
        }
        html.push_str("</tr>\n");
    }
    let _ = write!(
        html,
        "</table>\n<p>page {} of {} ({} rows)</p>\n",
        view.page + 1,
        view.page_count,
        view.total_rows
    );
    html
}

/// Render a cross-tab as an HTML table with totals.
pub fn render_crosstab(ct: &Crosstab) -> String {
    let mut html = String::from("<table border=\"1\">\n<tr><th></th>");
    for col in &ct.col_labels {
        let _ = write!(html, "<th>{}</th>", escape(&col.to_string()));
    }
    html.push_str("<th>total</th></tr>\n");
    for (r, row_label) in ct.row_labels.iter().enumerate() {
        let _ = write!(html, "<tr><th>{}</th>", escape(&row_label.to_string()));
        for c in 0..ct.col_labels.len() {
            let _ = write!(html, "<td>{}</td>", ct.cells[r][c]);
        }
        let _ = writeln!(html, "<td>{}</td></tr>", ct.row_totals[r]);
    }
    html.push_str("<tr><th>total</th>");
    for total in &ct.col_totals {
        let _ = write!(html, "<td>{total}</td>");
    }
    let _ = write!(html, "<td>{}</td></tr>\n</table>\n", ct.total);
    html
}

/// Render a folder tree as nested HTML lists.
pub fn render_folder(node: &FolderNode) -> String {
    let mut html = String::new();
    render_folder_into(node, &mut html);
    html
}

fn render_folder_into(node: &FolderNode, html: &mut String) {
    let _ = write!(html, "<li>📁 {} ({})", escape(&node.label), node.count);
    if !node.children.is_empty() {
        html.push_str("<ul>");
        for child in &node.children {
            render_folder_into(child, html);
        }
        html.push_str("</ul>");
    } else if !node.leaves.is_empty() {
        html.push_str("<ul>");
        for leaf in &node.leaves {
            let _ = write!(html, "<li><a href=\"banks://tuple/{leaf}\">{leaf}</a></li>");
        }
        html.push_str("</ul>");
    }
    html.push_str("</li>\n");
}

/// Render chart data.
///
/// Bar charts become div-bars whose widths encode values; line and pie
/// charts fall back to a linked value table (the image-map equivalent:
/// every visual element is an anchor).
pub fn render_chart(chart: &ChartData) -> String {
    let mut html = String::new();
    let _ = writeln!(html, "<h2>{}</h2>", escape(&chart.title));
    match chart.kind {
        ChartKind::Bar => {
            let max = chart
                .points
                .iter()
                .map(|p| p.value)
                .fold(0.0f64, f64::max)
                .max(1.0);
            for p in &chart.points {
                let width = (p.value / max * 300.0).round() as i64;
                let _ = writeln!(
                    html,
                    "<div><a href=\"{}\">{}</a> \
                     <span style=\"display:inline-block;background:#36c;height:12px;width:{}px\"></span> {}</div>",
                    escape(&p.link.href()),
                    escape(&p.label),
                    width,
                    p.value
                );
            }
        }
        ChartKind::Line | ChartKind::Pie => {
            html.push_str(
                "<table border=\"1\"><tr><th>label</th><th>value</th><th>share</th></tr>\n",
            );
            for p in &chart.points {
                let _ = writeln!(
                    html,
                    "<tr><td><a href=\"{}\">{}</a></td><td>{}</td><td>{:.1}%</td></tr>",
                    escape(&p.link.href()),
                    escape(&p.label),
                    p.value,
                    p.fraction * 100.0
                );
            }
            html.push_str("</table>\n");
        }
    }
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{self, ChartSpec, CrosstabSpec, FolderSpec, Measure};
    use crate::view::{render, ViewSpec};
    use banks_datagen::thesis::{generate, ThesisConfig};

    #[test]
    fn escape_covers_special_chars() {
        assert_eq!(escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&#39;");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn view_renders_links_and_pagination() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let spec = ViewSpec::relation(d.db.relation_id("Student").unwrap());
        let view = render(&d.db, &spec).unwrap();
        let html = render_view(&view);
        assert!(html.contains("<table"));
        assert!(html.contains("banks://tuple/"));
        assert!(html.contains("page 1 of 4"));
        assert!(html.contains("Student.RollNo"));
    }

    #[test]
    fn crosstab_html_has_totals() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let ct = templates::crosstab::evaluate(
            &d.db,
            &CrosstabSpec {
                relation: d.db.relation_id("Student").unwrap(),
                row_attr: 2,
                col_attr: 3,
                measure: Measure::Count,
            },
        )
        .unwrap();
        let html = render_crosstab(&ct);
        assert!(html.contains("<th>total</th>"));
        assert!(html.contains("80"));
    }

    #[test]
    fn folder_html_nests() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let tree = templates::folder::evaluate(
            &d.db,
            &FolderSpec {
                relation: d.db.relation_id("Student").unwrap(),
                levels: vec![2],
                max_leaves: 2,
            },
        )
        .unwrap();
        let html = render_folder(&tree);
        assert!(html.contains("<ul>"));
        assert!(html.contains("banks://tuple/"));
        assert!(html.matches("📁").count() > 1);
    }

    #[test]
    fn bar_chart_widths_scale() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let chart = templates::chart::evaluate(
            &d.db,
            &ChartSpec {
                relation: d.db.relation_id("Student").unwrap(),
                label_attr: 2,
                measure: Measure::Count,
                kind: crate::templates::ChartKind::Bar,
            },
        )
        .unwrap();
        let html = render_chart(&chart);
        assert!(html.contains("width:300px"), "largest bar is full width");
        assert!(html.contains("banks://group/"));
    }

    #[test]
    fn pie_chart_lists_shares() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let chart = templates::chart::evaluate(
            &d.db,
            &ChartSpec {
                relation: d.db.relation_id("Student").unwrap(),
                label_attr: 3,
                measure: Measure::Count,
                kind: crate::templates::ChartKind::Pie,
            },
        )
        .unwrap();
        let html = render_chart(&chart);
        assert!(html.contains('%'));
    }
}
