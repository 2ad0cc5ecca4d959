//! A small Datalog-style parser for conjunctive queries and UCQs.
//!
//! Syntax:
//!
//! ```text
//! q(x)  :- P(u,x), R(x,y), S(y,z)        # a CQ with one free variable
//! q()   :- R(x,y), R(y,z)                # a boolean CQ
//! u()   :- R(x,y) | S(x,y)               # a boolean UCQ (disjuncts split on '|')
//! ```
//!
//! Variable and relation names are alphanumeric identifiers (plus `_` and `'`);
//! whitespace is insignificant; everything after `#` on a line is a comment.
//!
//! Errors are **positioned**: every [`ParseQueryError`] carries the
//! (1-based) line and column of the failure plus the offending token, so
//! front ends can render caret diagnostics against the source text
//! (`cqdet-service` does exactly that for the CLI and the JSON-lines
//! server).  Columns are measured in characters against the raw input line —
//! including any leading whitespace and trailing comment — so a caret at
//! `col` under the original line points at the problem.

use crate::cq::{Atom, ConjunctiveQuery};
use crate::ucq::UnionQuery;
use std::fmt;

/// Error raised when parsing a query fails, with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueryError {
    /// 1-based line of the failure (always `1` for [`parse_query`]; real
    /// line numbers come from [`parse_queries`] / task-file parsing).
    line: usize,
    /// 1-based character column of the failure within the raw line.
    col: usize,
    /// The offending token (possibly empty at end of input).
    token: String,
    /// What the parser expected or found.
    message: String,
}

impl ParseQueryError {
    fn new(message: impl Into<String>, col: usize, token: impl Into<String>) -> Self {
        ParseQueryError {
            line: 1,
            col,
            token: token.into(),
            message: message.into(),
        }
    }

    /// The 1-based source line of the failure.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The 1-based character column of the failure.
    pub fn col(&self) -> usize {
        self.col
    }

    /// The offending token (empty when the input ended too early).
    pub fn token(&self) -> &str {
        &self.token
    }

    /// The bare description, without the position prefix.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The same error re-anchored at a real source line (used by multi-line
    /// front ends; [`parse_query`] itself always reports line 1).
    pub fn at_line(mut self, line: usize) -> Self {
        self.line = line;
        self
    }
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at line {}, column {}: {}",
            self.line, self.col, self.message
        )?;
        if !self.token.is_empty() {
            write!(f, " (found {:?})", self.token)?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseQueryError {}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '\''
}

/// The 1-based character column of the subslice `rest` within `input`.
/// `rest` must be derived from `input` by slicing/trimming (which is how the
/// parser below produces every intermediate), so the pointer offset is the
/// byte position and the column is the char count before it.
fn col_of(input: &str, rest: &str) -> usize {
    let offset = (rest.as_ptr() as usize).saturating_sub(input.as_ptr() as usize);
    let offset = offset.min(input.len());
    input[..offset].chars().count() + 1
}

/// The token starting at `rest`: a maximal identifier, or a single
/// non-identifier character, or empty at end of input.
fn head_token(rest: &str) -> &str {
    let rest = rest.trim_start();
    let mut chars = rest.char_indices();
    match chars.next() {
        None => "",
        Some((_, c)) if !is_ident_char(c) => &rest[..c.len_utf8()],
        Some(_) => {
            let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
            &rest[..end]
        }
    }
}

/// Split `R(x,y), S(y,z)` into atoms.  `input` is the raw line the body was
/// sliced from; every error is positioned against it.
fn parse_atoms(input: &str, body: &str) -> Result<Vec<Atom>, ParseQueryError> {
    let mut atoms = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        // relation name
        let name_end = rest.find(|c: char| !is_ident_char(c)).ok_or_else(|| {
            ParseQueryError::new(
                "expected '(' after relation name",
                col_of(input, rest) + rest.chars().count(),
                "",
            )
        })?;
        let name = &rest[..name_end];
        if name.is_empty() {
            return Err(ParseQueryError::new(
                "missing relation name",
                col_of(input, rest),
                head_token(rest),
            ));
        }
        rest = rest[name_end..].trim_start();
        if !rest.starts_with('(') {
            return Err(ParseQueryError::new(
                format!("expected '(' after relation {name}"),
                col_of(input, rest),
                head_token(rest),
            ));
        }
        let close = rest.find(')').ok_or_else(|| {
            ParseQueryError::new(
                format!("missing ')' in atom {name}"),
                col_of(input, rest),
                "(",
            )
        })?;
        let args_str = &rest[1..close];
        let vars: Vec<String> = if args_str.trim().is_empty() {
            Vec::new()
        } else {
            args_str.split(',').map(|v| v.trim().to_string()).collect()
        };
        for (i, v) in vars.iter().enumerate() {
            if v.is_empty() || !v.chars().all(is_ident_char) {
                // Point at the i-th argument inside the parentheses.
                let arg = args_str.split(',').nth(i).unwrap_or(args_str);
                let col = col_of(input, arg) + arg.len() - arg.trim_start().len();
                return Err(ParseQueryError::new(
                    format!("bad variable name {v:?} in atom {name}"),
                    col,
                    v.clone(),
                ));
            }
        }
        atoms.push(Atom {
            relation: name.to_string(),
            vars,
        });
        rest = rest[close + 1..].trim_start();
        if rest.starts_with(',') {
            let after_comma = rest[1..].trim_start();
            if after_comma.is_empty() {
                return Err(ParseQueryError::new(
                    "trailing ',' in query body",
                    col_of(input, rest),
                    ",",
                ));
            }
            rest = after_comma;
        } else if !rest.is_empty() {
            return Err(ParseQueryError::new(
                "unexpected input after atom",
                col_of(input, rest),
                head_token(rest),
            ));
        }
    }
    if atoms.is_empty() {
        return Err(ParseQueryError::new(
            "query body has no atoms",
            col_of(input, body),
            head_token(body),
        ));
    }
    Ok(atoms)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Parse a single query definition, e.g. `q(x) :- R(x,y), S(y,z)` or a UCQ
/// with `|`-separated disjuncts.  Every disjunct shares the head.
pub fn parse_query(input: &str) -> Result<UnionQuery, ParseQueryError> {
    let raw = input;
    let input_stripped = strip_comment(input).trim();
    let (head, body) = input_stripped.split_once(":-").ok_or_else(|| {
        ParseQueryError::new(
            "missing ':-' separator",
            col_of(raw, input_stripped),
            head_token(input_stripped),
        )
    })?;
    let head = head.trim();
    let open = head.find('(').ok_or_else(|| {
        ParseQueryError::new(
            "head must look like name(vars...)",
            col_of(raw, head),
            head_token(head),
        )
    })?;
    let close = head.rfind(')').ok_or_else(|| {
        ParseQueryError::new("head missing ')'", col_of(raw, head), head_token(head))
    })?;
    let name = head[..open].trim();
    if name.is_empty() || !name.chars().all(is_ident_char) {
        return Err(ParseQueryError::new(
            format!("bad query name {name:?}"),
            col_of(raw, head),
            name,
        ));
    }
    let free_str = &head[open + 1..close];
    let free: Vec<String> = if free_str.trim().is_empty() {
        Vec::new()
    } else {
        free_str.split(',').map(|v| v.trim().to_string()).collect()
    };
    let free_refs: Vec<&str> = free.iter().map(String::as_str).collect();

    let mut disjuncts = Vec::new();
    for (i, part) in body.split('|').enumerate() {
        let atoms = parse_atoms(raw, part)?;
        let disjunct_name = if body.contains('|') {
            format!("{name}#{i}")
        } else {
            name.to_string()
        };
        // Validate safety here so the error is a parse error, not a panic.
        // A boolean head has nothing to check, so it builds no set.
        if !free_refs.is_empty() {
            let body_vars: std::collections::BTreeSet<&str> = atoms
                .iter()
                .flat_map(|a| a.vars.iter().map(String::as_str))
                .collect();
            if let Some(v) = free_refs.iter().find(|v| !body_vars.contains(*v)) {
                return Err(ParseQueryError::new(
                    format!("free variable {v} does not occur in disjunct {i} of {name}"),
                    col_of(raw, free_str),
                    (*v).to_string(),
                ));
            }
        }
        disjuncts.push(ConjunctiveQuery::new(disjunct_name, &free_refs, atoms));
    }
    Ok(UnionQuery::new(name, disjuncts))
}

/// Parse a multi-line program: one query definition per (non-empty,
/// non-comment) line.  Errors carry the real (1-based) line number.
pub fn parse_queries(input: &str) -> Result<Vec<UnionQuery>, ParseQueryError> {
    let mut out = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if strip_comment(line).trim().is_empty() {
            continue;
        }
        out.push(parse_query(line).map_err(|e| e.at_line(idx + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_cq() {
        let u = parse_query("q(x) :- P(u,x), R(x,y), S(y,z)").unwrap();
        assert!(u.is_single_cq());
        let cq = &u.disjuncts()[0];
        assert_eq!(cq.name(), "q");
        assert_eq!(cq.arity(), 1);
        assert_eq!(cq.atoms().len(), 3);
        assert_eq!(cq.to_string(), "q(x) :- P(u,x), R(x,y), S(y,z)");
    }

    #[test]
    fn parse_boolean_cq() {
        let u = parse_query("q() :- R(x,y), R(y,z)").unwrap();
        assert!(u.is_boolean());
        assert_eq!(u.disjuncts()[0].atoms().len(), 2);
    }

    #[test]
    fn parse_nullary_atom() {
        let u = parse_query("q() :- H()").unwrap();
        assert_eq!(u.disjuncts()[0].atoms()[0].vars.len(), 0);
    }

    #[test]
    fn parse_ucq() {
        let u = parse_query("u() :- P(x) | R(x), S(y)").unwrap();
        assert_eq!(u.len(), 2);
        assert_eq!(u.disjuncts()[0].atoms().len(), 1);
        assert_eq!(u.disjuncts()[1].atoms().len(), 2);
        assert!(u.is_boolean());
    }

    #[test]
    fn parse_program_with_comments() {
        let prog = "
            # views
            v1(x) :- P(u,x), R(x,y)
            v2(x) :- R(x,y), S(y,z)   # second view

            q(x) :- P(u,x), R(x,y), S(y,z)
        ";
        let qs = parse_queries(prog).unwrap();
        assert_eq!(qs.len(), 3);
        assert_eq!(qs[2].name(), "q");
    }

    #[test]
    fn errors() {
        assert!(parse_query("q(x) R(x,y)").is_err());
        assert!(parse_query("q(x) :- ").is_err());
        assert!(parse_query("q(x) :- R(x,y,").is_err());
        assert!(parse_query("(x) :- R(x,y)").is_err());
        assert!(
            parse_query("q(x) :- R(y,z)").is_err(),
            "unsafe head variable"
        );
        assert!(parse_query("q(x) :- R(x,y), ").is_err());
        assert!(parse_query("q(x) :- R(x,y) junk").is_err());
        let err = parse_query("q(x) :- R(x,y) junk").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn errors_carry_line_column_and_token() {
        // The offending `junk` starts at column 16 of the raw line.
        let err = parse_query("q(x) :- R(x,y) junk").unwrap_err();
        assert_eq!((err.line(), err.col()), (1, 16));
        assert_eq!(err.token(), "junk");
        assert!(err.to_string().contains("line 1, column 16"), "{err}");
        assert!(err.to_string().contains("\"junk\""), "{err}");

        // Multi-line programs report the real line; leading whitespace counts
        // toward the column (the caret is rendered against the raw line).
        let err = parse_queries("v() :- R(x,y)\n  q() : R(x,y)\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.col(), 3, "first non-blank char of the raw line");
        assert!(err.to_string().contains("':-'"), "{err}");

        // A bad variable name points inside the parentheses.
        let err = parse_query("q() :- R(x,y?)").unwrap_err();
        assert_eq!(err.col(), 12);
        assert_eq!(err.token(), "y?");

        // Missing '(' after a relation name names the relation.
        let err = parse_query("q() :- R x,y)").unwrap_err();
        assert!(err.message().contains("after relation R"), "{err}");
        assert_eq!(err.col(), 10);
    }

    #[test]
    fn whitespace_insensitive() {
        let a = parse_query("q( x )  :-  R( x , y ),S(y,z)").unwrap();
        let b = parse_query("q(x) :- R(x,y), S(y,z)").unwrap();
        assert_eq!(a.disjuncts()[0].atoms(), b.disjuncts()[0].atoms());
    }
}
