//! Shared error type for the workspace.

use std::fmt;

/// Errors surfaced by the Datalog frontend, the storage/execution substrate
/// and the engine driver.
#[derive(Debug)]
pub enum Error {
    /// A syntax error while parsing a `.datalog` program.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A semantic error found by the rule analyzer (unsafe rule, unstratified
    /// negation, arity mismatch, unknown relation, ...).
    Analysis(String),
    /// A runtime error inside the relational substrate.
    Exec(String),
    /// An I/O error: reading input files, writing outputs, or the WAL and
    /// snapshots of the query service.
    Io(std::io::Error),
    /// The evaluation was cooperatively cancelled (request timeout or an
    /// explicit abort) at an iteration boundary; no partial state escaped.
    Cancelled,
    /// Durable state on disk is inconsistent in a way recovery cannot
    /// repair by truncation (a corrupt snapshot table, a manifest that
    /// fails its checksum). Distinct from [`Error::Io`]: the bytes were
    /// read fine, they just cannot be trusted.
    Durability(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            Error::Analysis(msg) => write!(f, "analysis error: {msg}"),
            Error::Exec(msg) => write!(f, "execution error: {msg}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Cancelled => write!(f, "evaluation cancelled"),
            Error::Durability(msg) => write!(f, "durability error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// Shorthand constructor for analysis errors.
    pub fn analysis(msg: impl Into<String>) -> Self {
        Error::Analysis(msg.into())
    }

    /// Shorthand constructor for execution errors.
    pub fn exec(msg: impl Into<String>) -> Self {
        Error::Exec(msg.into())
    }

    /// Shorthand constructor for durability errors.
    pub fn durability(msg: impl Into<String>) -> Self {
        Error::Durability(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::Parse {
            line: 3,
            col: 7,
            msg: "unexpected ')'".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:7: unexpected ')'");
        assert_eq!(Error::analysis("bad").to_string(), "analysis error: bad");
        assert_eq!(Error::exec("boom").to_string(), "execution error: boom");
        assert_eq!(Error::Cancelled.to_string(), "evaluation cancelled");
        assert_eq!(
            Error::durability("torn manifest").to_string(),
            "durability error: torn manifest"
        );
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
