//! Boolean query expression trees (paper §2.2, §4.5).
//!
//! Queries combine single terms with intersection (`AND`) and union
//! (`OR`): the paper's "complex queries with multiple terms and set
//! operators like `(L0 ∪ L1) ∩ (L2 ∪ L3)`" are binary expression trees
//! whose leaves are terms. A small recursive-descent parser accepts the
//! conventional textual form with `AND` binding tighter than `OR`.

use std::error::Error;
use std::fmt;

/// A boolean search query.
///
/// # Example
///
/// ```
/// use iiu_core::Query;
/// let q = Query::parse("business AND (cameo OR lausanne)").unwrap();
/// assert_eq!(q.terms(), vec!["business", "cameo", "lausanne"]);
/// assert!(!q.is_primitive());
/// assert!(Query::parse("business AND cameo").unwrap().is_primitive());
/// let p = Query::parse("\"new york times\"").unwrap();
/// assert_eq!(p.terms(), vec!["new", "york", "times"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// A single-term query.
    Term(String),
    /// An exact-phrase query: consecutive terms in order (paper §2.2 —
    /// implemented as an intersection plus a positional check).
    Phrase(Vec<String>),
    /// Intersection of the two subqueries' results.
    And(Box<Query>, Box<Query>),
    /// Union of the two subqueries' results.
    Or(Box<Query>, Box<Query>),
}

impl Query {
    /// Builds a term leaf.
    pub fn term(t: impl Into<String>) -> Self {
        Query::Term(t.into())
    }

    /// Builds an intersection node.
    pub fn and(a: Query, b: Query) -> Self {
        Query::And(Box::new(a), Box::new(b))
    }

    /// Builds a union node.
    pub fn or(a: Query, b: Query) -> Self {
        Query::Or(Box::new(a), Box::new(b))
    }

    /// Builds an exact-phrase leaf.
    pub fn phrase<T: Into<String>>(terms: impl IntoIterator<Item = T>) -> Self {
        Query::Phrase(terms.into_iter().map(Into::into).collect())
    }

    /// Parses `a AND (b OR c)` syntax, with double-quoted exact phrases
    /// (`"new york" AND times`). `AND` binds tighter than `OR`; terms are
    /// lowercased.
    ///
    /// # Errors
    ///
    /// Returns [`ParseQueryError`] on empty input, unbalanced parentheses,
    /// or dangling operators.
    pub fn parse(input: &str) -> Result<Self, ParseQueryError> {
        let tokens = lex(input)?;
        let mut pos = 0usize;
        let q = parse_or(&tokens, &mut pos)?;
        if pos != tokens.len() {
            return Err(ParseQueryError {
                message: format!("unexpected trailing input at token {pos}"),
            });
        }
        Ok(q)
    }

    /// All distinct terms, in first-appearance order.
    pub fn terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Query::Term(t) => {
                if !out.contains(&t.as_str()) {
                    out.push(t);
                }
            }
            Query::Phrase(ts) => {
                for t in ts {
                    if !out.contains(&t.as_str()) {
                        out.push(t);
                    }
                }
            }
            Query::And(a, b) | Query::Or(a, b) => {
                a.collect_terms(out);
                b.collect_terms(out);
            }
        }
    }

    /// Whether the query maps directly onto one accelerator operation: a
    /// single term, or one set operator over two terms (the three query
    /// types of §4.2). Anything else takes the recursive §4.5 path.
    pub fn is_primitive(&self) -> bool {
        self.primitive().is_some()
    }

    /// The accelerator operation the query maps onto, if it is primitive
    /// (see [`Query::is_primitive`]).
    pub(crate) fn primitive(&self) -> Option<Primitive<'_>> {
        fn term(q: &Query) -> Option<&str> {
            match q {
                Query::Term(t) => Some(t),
                _ => None,
            }
        }
        match self {
            Query::Term(t) => Some(Primitive::Single(t)),
            Query::Phrase(_) => None,
            Query::And(a, b) => Some(Primitive::And(term(a)?, term(b)?)),
            Query::Or(a, b) => Some(Primitive::Or(term(a)?, term(b)?)),
        }
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        match self {
            Query::Term(_) | Query::Phrase(_) => 1,
            Query::And(a, b) | Query::Or(a, b) => 1 + a.size() + b.size(),
        }
    }
}

/// A primitive query's shape (§4.2), borrowing its term strings.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Primitive<'q> {
    /// One term's full list.
    Single(&'q str),
    /// Intersection of two terms.
    And(&'q str, &'q str),
    /// Union of two terms.
    Or(&'q str, &'q str),
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Term(t) => write!(f, "{t}"),
            Query::Phrase(ts) => write!(f, "\"{}\"", ts.join(" ")),
            Query::And(a, b) => write!(f, "({a} AND {b})"),
            Query::Or(a, b) => write!(f, "({a} OR {b})"),
        }
    }
}

/// Error from [`Query::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueryError {
    message: String,
}

impl fmt::Display for ParseQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid query: {}", self.message)
    }
}

impl Error for ParseQueryError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Term(String),
    Phrase(Vec<String>),
    And,
    Or,
    LParen,
    RParen,
}

fn lex_term(term: &str) -> Result<String, ParseQueryError> {
    let t = term.to_lowercase();
    if t.chars().any(|c| !c.is_alphanumeric()) {
        return Err(ParseQueryError {
            message: format!("term {term:?} contains non-alphanumeric characters"),
        });
    }
    Ok(t)
}

fn lex(input: &str) -> Result<Vec<Token>, ParseQueryError> {
    // Split out double-quoted phrases first, then tokenize the rest.
    let mut tokens = Vec::new();
    for (i, segment) in input.split('"').enumerate() {
        if i % 2 == 1 {
            // Inside quotes: an exact phrase.
            let words: Result<Vec<String>, _> =
                segment.split_whitespace().map(lex_term).collect();
            let words = words?;
            if words.is_empty() {
                return Err(ParseQueryError { message: "empty phrase".into() });
            }
            tokens.push(Token::Phrase(words));
            continue;
        }
        for raw in segment.replace('(', " ( ").replace(')', " ) ").split_whitespace() {
            tokens.push(match raw {
                "(" => Token::LParen,
                ")" => Token::RParen,
                "AND" => Token::And,
                "OR" => Token::Or,
                term => Token::Term(lex_term(term)?),
            });
        }
    }
    if input.matches('"').count() % 2 == 1 {
        return Err(ParseQueryError { message: "unbalanced quotes".into() });
    }
    if tokens.is_empty() {
        return Err(ParseQueryError { message: "empty query".into() });
    }
    Ok(tokens)
}

fn parse_or(tokens: &[Token], pos: &mut usize) -> Result<Query, ParseQueryError> {
    let mut left = parse_and(tokens, pos)?;
    while matches!(tokens.get(*pos), Some(Token::Or)) {
        *pos += 1;
        let right = parse_and(tokens, pos)?;
        left = Query::or(left, right);
    }
    Ok(left)
}

fn parse_and(tokens: &[Token], pos: &mut usize) -> Result<Query, ParseQueryError> {
    let mut left = parse_atom(tokens, pos)?;
    while matches!(tokens.get(*pos), Some(Token::And)) {
        *pos += 1;
        let right = parse_atom(tokens, pos)?;
        left = Query::and(left, right);
    }
    Ok(left)
}

fn parse_atom(tokens: &[Token], pos: &mut usize) -> Result<Query, ParseQueryError> {
    match tokens.get(*pos) {
        Some(Token::Term(t)) => {
            *pos += 1;
            Ok(Query::Term(t.clone()))
        }
        Some(Token::Phrase(ts)) => {
            *pos += 1;
            Ok(if ts.len() == 1 {
                Query::Term(ts[0].clone())
            } else {
                Query::Phrase(ts.clone())
            })
        }
        Some(Token::LParen) => {
            *pos += 1;
            let q = parse_or(tokens, pos)?;
            if !matches!(tokens.get(*pos), Some(Token::RParen)) {
                return Err(ParseQueryError { message: "missing closing parenthesis".into() });
            }
            *pos += 1;
            Ok(q)
        }
        other => {
            Err(ParseQueryError { message: format!("expected term or '(', got {other:?}") })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_term() {
        assert_eq!(Query::parse("Business").unwrap(), Query::term("business"));
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let q = Query::parse("a OR b AND c").unwrap();
        assert_eq!(
            q,
            Query::or(Query::term("a"), Query::and(Query::term("b"), Query::term("c")))
        );
    }

    #[test]
    fn parentheses_override_precedence() {
        let q = Query::parse("(a OR b) AND c").unwrap();
        assert_eq!(
            q,
            Query::and(Query::or(Query::term("a"), Query::term("b")), Query::term("c"))
        );
    }

    #[test]
    fn left_associative_chains() {
        let q = Query::parse("a AND b AND c").unwrap();
        assert_eq!(
            q,
            Query::and(Query::and(Query::term("a"), Query::term("b")), Query::term("c"))
        );
    }

    #[test]
    fn paper_example_shape() {
        // (L0 ∪ L1) ∩ (L2 ∪ L3) from §4.5.
        let q = Query::parse("(l0 OR l1) AND (l2 OR l3)").unwrap();
        assert_eq!(q.size(), 7);
        assert_eq!(q.terms(), vec!["l0", "l1", "l2", "l3"]);
        assert!(!q.is_primitive());
    }

    #[test]
    fn primitive_detection() {
        assert!(Query::parse("a").unwrap().is_primitive());
        assert!(Query::parse("a AND b").unwrap().is_primitive());
        assert!(Query::parse("a OR b").unwrap().is_primitive());
        assert!(!Query::parse("a AND b AND c").unwrap().is_primitive());
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(Query::parse("").is_err());
        assert!(Query::parse("a AND").is_err());
        assert!(Query::parse("AND a").is_err());
        assert!(Query::parse("(a OR b").is_err());
        assert!(Query::parse("a b").is_err());
        assert!(Query::parse("a&b").is_err());
    }

    #[test]
    fn terms_deduplicate() {
        let q = Query::parse("a AND (a OR b)").unwrap();
        assert_eq!(q.terms(), vec!["a", "b"]);
    }

    #[test]
    fn parses_phrases() {
        let q = Query::parse("\"New York Times\"").unwrap();
        assert_eq!(q, Query::phrase(["new", "york", "times"]));
        let q = Query::parse("\"new york\" AND times").unwrap();
        assert_eq!(q, Query::and(Query::phrase(["new", "york"]), Query::term("times")));
        // A one-word phrase degrades to a term.
        assert_eq!(Query::parse("\"solo\"").unwrap(), Query::term("solo"));
    }

    #[test]
    fn phrase_parse_errors() {
        assert!(Query::parse("\"unbalanced").is_err());
        assert!(Query::parse("\"\"").is_err());
        assert!(Query::parse("\"a&b\"").is_err());
    }

    #[test]
    fn phrase_display_roundtrips() {
        let q = Query::parse("\"quick brown fox\" OR dog").unwrap();
        assert_eq!(Query::parse(&q.to_string()).unwrap(), q);
        assert!(!q.is_primitive());
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let q = Query::parse("(a OR b) AND c").unwrap();
        let q2 = Query::parse(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Strategy generating arbitrary query trees.
    fn arb_query() -> impl Strategy<Value = Query> {
        let leaf = prop_oneof![
            "[a-z][a-z0-9]{0,6}".prop_map(Query::term),
            proptest::collection::vec("[a-z][a-z0-9]{0,5}", 2..4).prop_map(Query::phrase),
        ];
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Query::and(a, b)),
                (inner.clone(), inner).prop_map(|(a, b)| Query::or(a, b)),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_display_parse_roundtrip(q in arb_query()) {
            let reparsed = Query::parse(&q.to_string()).expect("display must reparse");
            prop_assert_eq!(reparsed, q);
        }

        #[test]
        fn prop_terms_are_lowercase_alnum(q in arb_query()) {
            for t in q.terms() {
                prop_assert!(t.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
            }
        }

        #[test]
        fn prop_parser_never_panics(input in ".{0,80}") {
            let _ = Query::parse(&input);
        }

        #[test]
        fn prop_size_counts_nodes(q in arb_query()) {
            // size >= number of distinct terms grouped into leaves.
            prop_assert!(q.size() >= 1);
            prop_assert!(q.size() <= 64);
        }
    }
}
