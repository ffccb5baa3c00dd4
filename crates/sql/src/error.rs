//! Positioned SQL errors with caret rendering.

use std::fmt;

/// An error raised while lexing, parsing, or planning SQL.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    /// Byte offset into the source text where the error was detected.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl SqlError {
    /// Creates an error at `pos`.
    pub fn new(pos: usize, message: impl Into<String>) -> Self {
        SqlError {
            pos,
            message: message.into(),
        }
    }

    /// Renders the error with the offending source line and a caret, e.g.
    ///
    /// ```text
    /// error: expected FROM
    ///   SELECT x WHERE y
    ///            ^
    /// ```
    #[expect(
        clippy::string_slice,
        reason = "pos is clamped to source.len() and is a char-boundary lexer offset; \
                  the line bounds come from find()/rfind() on the same str"
    )]
    pub fn render(&self, source: &str) -> String {
        let pos = self.pos.min(source.len());
        let line_start = source[..pos].rfind('\n').map(|i| i + 1).unwrap_or(0);
        let line_end = source[pos..]
            .find('\n')
            .map(|i| pos + i)
            .unwrap_or(source.len());
        let line = &source[line_start..line_end];
        let col = source[line_start..pos].chars().count();
        format!(
            "error: {}\n  {}\n  {}^",
            self.message,
            line,
            " ".repeat(col)
        )
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.pos)
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_offending_column() {
        let src = "SELECT x FRM t";
        let err = SqlError::new(9, "expected FROM");
        let rendered = err.render(src);
        assert!(rendered.contains("expected FROM"));
        assert!(rendered.contains("SELECT x FRM t"));
        // Caret under column 9, after the 2-space indent both lines share.
        let caret_line = rendered.lines().last().unwrap();
        assert_eq!(caret_line, format!("  {}^", " ".repeat(9)));
    }

    #[test]
    fn render_handles_out_of_range_pos() {
        let err = SqlError::new(999, "eof");
        let rendered = err.render("short");
        assert!(rendered.contains("eof"));
    }

    #[test]
    fn render_multiline_source() {
        let src = "SELECT x\nFROM\nWHERE";
        let err = SqlError::new(14, "expected table name");
        let rendered = err.render(src);
        assert!(rendered.contains("WHERE"));
    }

    #[test]
    fn display_includes_position() {
        let err = SqlError::new(3, "boom");
        assert!(err.to_string().contains("byte 3"));
    }
}
