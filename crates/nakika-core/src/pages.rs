//! Na Kika Pages: the `<?nkp ... ?>` markup programming model (paper §3.1).
//!
//! Resources with the `nkp` extension or `text/nkp` MIME type are subject to
//! edge-side processing: text between `<?nkp` and `?>` is treated as script
//! and replaced by its output.  The paper implements this on top of the
//! event-based model with a ~60-line script; here the page is compiled to an
//! NkScript program that accumulates output in a buffer (`echo(...)` inside
//! code blocks, `<?nkp= expr ?>` for expression interpolation) and the node's
//! site stage runs that program when it sees an NKP response.

/// Name of the output-accumulation variable in compiled pages.
const OUT_VAR: &str = "__nkp_out";

/// Compiles an NKP page into NkScript source whose final expression is the
/// rendered page text.
pub(crate) fn compile_page(page: &str) -> String {
    let mut script = String::with_capacity(page.len() * 2);
    script.push_str(&format!("var {OUT_VAR} = '';\n"));
    script.push_str(&format!(
        "function echo(x) {{ {OUT_VAR} = {OUT_VAR} + x; }}\n"
    ));
    let mut rest = page;
    loop {
        match rest.find("<?nkp") {
            None => {
                if !rest.is_empty() {
                    script.push_str(&emit_literal(rest));
                }
                break;
            }
            Some(start) => {
                if start > 0 {
                    script.push_str(&emit_literal(&rest[..start]));
                }
                let after_tag = &rest[start + "<?nkp".len()..];
                let (code, remaining) = match after_tag.find("?>") {
                    Some(end) => (&after_tag[..end], &after_tag[end + 2..]),
                    None => (after_tag, ""),
                };
                if let Some(expr) = code.strip_prefix('=') {
                    script.push_str(&format!("echo({});\n", expr.trim()));
                } else {
                    script.push_str(code);
                    script.push('\n');
                }
                rest = remaining;
            }
        }
    }
    script.push_str(&format!("{OUT_VAR}\n"));
    script
}

fn emit_literal(text: &str) -> String {
    let escaped = text
        .replace('\\', "\\\\")
        .replace('\'', "\\'")
        .replace('\n', "\\n")
        .replace('\r', "\\r");
    format!("echo('{escaped}');\n")
}

/// True if a resource should be treated as a Na Kika Page, judged from its
/// URL extension and/or content type (paper: the `nkp` extension or the
/// `text/nkp` MIME type).
pub(crate) fn is_nkp(extension: Option<&str>, content_type: Option<&str>) -> bool {
    extension
        .map(|e| e.eq_ignore_ascii_case("nkp"))
        .unwrap_or(false)
        || content_type
            .map(|c| c.eq_ignore_ascii_case("text/nkp"))
            .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nakika_script::ScriptError;

    /// Renders a page in a fresh sandboxed context with only the standard
    /// library installed; the node renders pages in request contexts with
    /// the full vocabularies available.
    fn render_page(page: &str) -> Result<String, ScriptError> {
        let script = compile_page(page);
        Ok(nakika_script::eval(&script)?.to_display_string())
    }

    #[test]
    fn static_pages_pass_through() {
        assert_eq!(
            render_page("<html><body>plain</body></html>").unwrap(),
            "<html><body>plain</body></html>"
        );
        assert_eq!(render_page("").unwrap(), "");
    }

    #[test]
    fn code_blocks_emit_via_echo() {
        let page = "<ul><?nkp for (var i = 1; i <= 3; i++) { echo('<li>' + i + '</li>'); } ?></ul>";
        assert_eq!(
            render_page(page).unwrap(),
            "<ul><li>1</li><li>2</li><li>3</li></ul>"
        );
    }

    #[test]
    fn expression_interpolation() {
        let page = "<p>2 + 2 = <?nkp= 2 + 2 ?></p>";
        assert_eq!(render_page(page).unwrap(), "<p>2 + 2 = 4</p>");
    }

    #[test]
    fn mixed_text_code_and_expressions() {
        let page = "A<?nkp var name = 'student'; ?>B<?nkp= name.toUpperCase() ?>C";
        assert_eq!(render_page(page).unwrap(), "ABSTUDENTC");
    }

    #[test]
    fn literals_with_quotes_and_newlines_survive() {
        let page = "line1\nit's \"quoted\"\n<?nkp= 1 ?>";
        assert_eq!(render_page(page).unwrap(), "line1\nit's \"quoted\"\n1");
    }

    #[test]
    fn unterminated_block_consumes_rest() {
        let page = "before<?nkp echo('x');";
        assert_eq!(render_page(page).unwrap(), "beforex");
    }

    #[test]
    fn script_errors_propagate() {
        assert!(render_page("<?nkp this is not valid script ?>").is_err());
    }

    #[test]
    fn nkp_detection() {
        assert!(is_nkp(Some("nkp"), None));
        assert!(is_nkp(Some("NKP"), None));
        assert!(is_nkp(None, Some("text/nkp")));
        assert!(!is_nkp(Some("html"), Some("text/html")));
        assert!(!is_nkp(None, None));
    }
}
