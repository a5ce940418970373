//! Plain-text table rendering for the shell.

use banks_browse::RenderedView;

/// Render a [`RenderedView`] as an aligned ASCII table with a pagination
/// footer. Link-bearing cells are bracketed so navigation targets are
/// visible in a terminal.
pub(crate) fn render_text_table(view: &RenderedView) -> String {
    let mut widths: Vec<usize> = view.columns.iter().map(|c| c.chars().count()).collect();
    let cells: Vec<Vec<String>> = view
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| {
                    if cell.link.is_some() {
                        format!("[{}]", cell.text)
                    } else {
                        cell.text.clone()
                    }
                })
                .collect()
        })
        .collect();
    for row in &cells {
        for (i, text) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(text.chars().count());
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!("== {} ==\n", view.title));
    let header: Vec<String> = view
        .columns
        .iter()
        .zip(&widths)
        .map(|(c, w)| format!("{c:<w$}"))
        .collect();
    out.push_str(&header.join(" | "));
    out.push('\n');
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&rule.join("-+-"));
    out.push('\n');
    for row in &cells {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(t, w)| format!("{t:<w$}"))
            .collect();
        out.push_str(&line.join(" | "));
        out.push('\n');
    }
    out.push_str(&format!(
        "page {}/{} — {} rows total\n",
        view.page + 1,
        view.page_count,
        view.total_rows
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_browse::{render, ViewSpec};
    use banks_datagen::thesis::{generate, ThesisConfig};

    #[test]
    fn table_is_aligned_and_marks_links() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let spec = ViewSpec::relation(d.db.relation_id("Student").unwrap());
        let view = render(&d.db, &spec).unwrap();
        let text = render_text_table(&view);
        assert!(text.contains("== Student =="));
        assert!(text.contains(" | "));
        assert!(text.contains('['), "links are bracketed");
        assert!(text.contains("page 1/"));
        // All data lines have equal width.
        let lines: Vec<&str> = text.lines().skip(1).take(5).collect();
        let widths: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }
}
