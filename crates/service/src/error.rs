//! The typed error hierarchy of the service protocol.
//!
//! Every failure a request can provoke collapses into one [`CqdetError`],
//! with a stable machine-readable [`CqdetError::code`] on the wire and
//! enough structure for a front end to act on it:
//!
//! | variant                | code                 | meaning |
//! |------------------------|----------------------|---------|
//! | [`CqdetError::Parse`]  | `parse`              | the program / task file / request JSON failed to parse; carries line, column and the offending token |
//! | [`CqdetError::Schema`] | `schema`             | well-formed input outside the decidable fragment or the protocol schema (free variables, union queries, nullary relations, a relation used with two arities, unknown request members) |
//! | [`CqdetError::ResourceExhausted`] | `resource_exhausted` | a search budget or serving capacity ran out (fuel, connection cap) |
//! | [`CqdetError::Deadline`] | `deadline`         | the request's deadline expired; carries the pipeline stage that observed it — rendered as a `timeout` response |
//! | [`CqdetError::Internal`] | `internal`         | an invariant failed or a worker panicked; the process survives and reports it |
//!
//! Conversions from every lower-layer error type (`ParseQueryError`,
//! `TaskFileError`, `JsonError`, `DeterminacyError`, `WitnessError`) are
//! provided, so `?` composes the hierarchy from the leaves.

use cqdet_core::{DeterminacyError, WitnessError};
use cqdet_engine::{JsonError, TaskFileError};
use cqdet_query::ParseQueryError;
use std::fmt;

/// The service-level error hierarchy.  See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqdetError {
    /// Input text failed to parse.
    Parse {
        /// 1-based line of the failure in the submitted text.
        line: usize,
        /// 1-based character column within that line.
        col: usize,
        /// The offending token (possibly empty at end of input).
        token: String,
        /// What the parser expected or found.
        message: String,
    },
    /// Well-formed input that the decidable fragment or the protocol schema
    /// rejects.
    Schema {
        /// The rejection, in full.
        message: String,
    },
    /// A bounded search, fuel budget or serving resource ran out.
    ResourceExhausted {
        /// Which budget was exhausted.
        what: String,
        /// For fuel budgets: total charged when the limit check fired.
        spent: Option<u64>,
        /// For fuel budgets: the configured limit.
        limit: Option<u64>,
    },
    /// The request's deadline expired (or its token was cancelled).
    Deadline {
        /// The pipeline stage boundary that observed the expiry
        /// (`"gate"`, `"basis"`, `"span"`, `"witness/…"`, `"submit"`).
        stage: String,
    },
    /// An internal invariant failed; the serving process survives it.
    Internal {
        /// The failure, for the logs.
        message: String,
    },
}

impl CqdetError {
    /// The stable machine-readable error code on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            CqdetError::Parse { .. } => "parse",
            CqdetError::Schema { .. } => "schema",
            CqdetError::ResourceExhausted { .. } => "resource_exhausted",
            CqdetError::Deadline { .. } => "deadline",
            CqdetError::Internal { .. } => "internal",
        }
    }

    /// Shorthand for a [`CqdetError::Schema`] rejection.
    pub fn schema(message: impl Into<String>) -> CqdetError {
        CqdetError::Schema {
            message: message.into(),
        }
    }

    /// Shorthand for a [`CqdetError::Internal`] failure.
    pub fn internal(message: impl Into<String>) -> CqdetError {
        CqdetError::Internal {
            message: message.into(),
        }
    }

    /// Shorthand for a [`CqdetError::ResourceExhausted`] without fuel
    /// accounting (capacity limits, search budgets).
    pub fn resource(what: impl Into<String>) -> CqdetError {
        CqdetError::ResourceExhausted {
            what: what.into(),
            spent: None,
            limit: None,
        }
    }

    /// Render the error against the source text it refers to, with a caret
    /// marking the failing column of parse errors:
    ///
    /// ```text
    /// parse error at line 2, column 9: expected '(' after relation R (found "x")
    ///   |   q() :- R x,y)
    ///   |           ^
    /// ```
    ///
    /// Falls back to the plain [`fmt::Display`] rendering when the error is
    /// not positional or the line is missing from `source`.
    pub fn render(&self, source: Option<&str>) -> String {
        let CqdetError::Parse { line, col, .. } = self else {
            return self.to_string();
        };
        let Some(src_line) = source.and_then(|s| s.lines().nth(line.saturating_sub(1))) else {
            return self.to_string();
        };
        let caret_pad: String = src_line
            .chars()
            .take(col.saturating_sub(1))
            // Preserve hard tabs so the caret stays aligned with the source.
            .map(|c| if c == '\t' { '\t' } else { ' ' })
            .collect();
        format!("{self}\n  |  {src_line}\n  |  {caret_pad}^")
    }
}

impl fmt::Display for CqdetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqdetError::Parse {
                line,
                col,
                token,
                message,
            } => {
                write!(f, "parse error at line {line}, column {col}: {message}")?;
                if !token.is_empty() {
                    write!(f, " (found {token:?})")?;
                }
                Ok(())
            }
            CqdetError::Schema { message } => write!(f, "schema error: {message}"),
            CqdetError::ResourceExhausted { what, spent, limit } => {
                write!(f, "resource exhausted: {what}")?;
                if let (Some(spent), Some(limit)) = (spent, limit) {
                    write!(f, " ({spent} spent, limit {limit})")?;
                }
                Ok(())
            }
            CqdetError::Deadline { stage } => {
                write!(f, "deadline exceeded at stage {stage}")
            }
            CqdetError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for CqdetError {}

impl From<ParseQueryError> for CqdetError {
    fn from(e: ParseQueryError) -> CqdetError {
        CqdetError::Parse {
            line: e.line(),
            col: e.col(),
            token: e.token().to_string(),
            message: e.message().to_string(),
        }
    }
}

impl From<TaskFileError> for CqdetError {
    fn from(e: TaskFileError) -> CqdetError {
        match e {
            TaskFileError::BadDefinition { error, .. } => error.into(),
            other => CqdetError::Schema {
                message: other.to_string(),
            },
        }
    }
}

impl From<JsonError> for CqdetError {
    fn from(e: JsonError) -> CqdetError {
        // Requests are single JSON lines, so the byte offset is a line-1
        // column (1-based; close enough for ASCII protocol text).
        CqdetError::Parse {
            line: 1,
            col: e.offset + 1,
            token: String::new(),
            message: format!("invalid JSON: {}", e.message),
        }
    }
}

impl From<DeterminacyError> for CqdetError {
    fn from(e: DeterminacyError) -> CqdetError {
        match e {
            DeterminacyError::DeadlineExceeded { stage } => CqdetError::Deadline {
                stage: stage.to_string(),
            },
            DeterminacyError::ResourceExhausted { what, spent, limit } => {
                CqdetError::ResourceExhausted {
                    what: format!("fuel {what} budget"),
                    spent: Some(spent),
                    limit: Some(limit),
                }
            }
            DeterminacyError::Internal(message) => CqdetError::Internal { message },
            schema_violation => CqdetError::Schema {
                message: schema_violation.to_string(),
            },
        }
    }
}

impl From<WitnessError> for CqdetError {
    fn from(e: WitnessError) -> CqdetError {
        match e {
            WitnessError::DeadlineExceeded { stage } => CqdetError::Deadline {
                stage: stage.to_string(),
            },
            WitnessError::Internal(message) => CqdetError::Internal { message },
            WitnessError::InstanceIsDetermined => CqdetError::Internal {
                message: "witness requested for a determined instance".to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqdet_query::parse_query;

    #[test]
    fn codes_are_stable() {
        let parse = CqdetError::from(parse_query("q() : R(x,y)").unwrap_err());
        assert_eq!(parse.code(), "parse");
        assert_eq!(CqdetError::schema("x").code(), "schema");
        assert_eq!(
            CqdetError::Deadline {
                stage: "gate".into()
            }
            .code(),
            "deadline"
        );
        assert_eq!(CqdetError::internal("x").code(), "internal");
        assert_eq!(CqdetError::resource("x").code(), "resource_exhausted");
        let fuel: CqdetError = cqdet_core::DeterminacyError::ResourceExhausted {
            what: "steps",
            spent: 4096,
            limit: 64,
        }
        .into();
        assert_eq!(fuel.code(), "resource_exhausted");
        assert_eq!(
            fuel.to_string(),
            "resource exhausted: fuel steps budget (4096 spent, limit 64)"
        );
    }

    #[test]
    fn caret_rendering_points_at_the_token() {
        let source = "v() :- R(x,y)\n  q() : R(x,y)\n";
        let err = CqdetError::from(cqdet_query::parse_queries(source).unwrap_err());
        let rendered = err.render(Some(source));
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[0].contains("line 2"), "{rendered}");
        assert_eq!(lines[1], "  |    q() : R(x,y)");
        // The caret sits under column 3 (the 'q').
        assert_eq!(lines[2], "  |    ^");
        // Non-positional errors render flat.
        assert_eq!(
            CqdetError::schema("nope").render(Some(source)),
            "schema error: nope"
        );
    }

    #[test]
    fn conversions_pick_the_right_variant() {
        let e: CqdetError = cqdet_core::DeterminacyError::DeadlineExceeded { stage: "span" }.into();
        assert!(matches!(e, CqdetError::Deadline { ref stage } if stage == "span"));
        let e: CqdetError = cqdet_core::DeterminacyError::NullaryRelation("H".into()).into();
        assert_eq!(e.code(), "schema");
        let e: CqdetError = cqdet_engine::parse_task_file("v() :- R(x,y)")
            .unwrap_err()
            .into();
        assert_eq!(e.code(), "schema");
        let e: CqdetError = cqdet_engine::parse_task_file("q() : R\ntask a: q <- *")
            .unwrap_err()
            .into();
        assert_eq!(e.code(), "parse");
        let e: CqdetError = cqdet_engine::Json::parse("{nope").unwrap_err().into();
        assert_eq!(e.code(), "parse");
    }
}
