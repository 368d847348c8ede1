//! A small text syntax for constraints and generalized tuples.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! tuple      := constraint ("&&" constraint)*
//! constraint := expr op expr
//! op         := "<=" | ">=" | "=" | "<" | ">"
//! expr       := ["+"|"-"] term (("+"|"-") term)*
//! term       := number | var | number ["*"] var
//! var        := "x" | "y" | "z" | "w" | "x1" .. "x9"
//! ```
//!
//! `x`,`y`,`z`,`w` map to coordinates 1–4; `xK` to coordinate `K`. Equality
//! produces the paper's `≥ ∧ ≤` pair. Strict `<`/`>` are accepted and
//! treated as their closed counterparts (the paper's techniques extend to
//! strict operators; the closed approximation is exact for all indexing
//! purposes because the dual surfaces are unchanged).
#![allow(clippy::doc_lazy_continuation)]

use crate::constraint::{LinearConstraint, RelOp};
use crate::tuple::GeneralizedTuple;

/// Parse error with a human-readable message and byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a conjunction of constraints into a [`GeneralizedTuple`].
///
/// The dimension is the largest variable index mentioned (at least 1).
pub fn parse_tuple(input: &str) -> Result<GeneralizedTuple, ParseError> {
    let mut constraints = Vec::new();
    let mut max_var = 0usize;
    for (part, offset) in split_conjuncts(input) {
        let (terms, constant, op, eq) = parse_one(part, offset)?;
        for (v, _) in &terms {
            max_var = max_var.max(*v + 1);
        }
        constraints.push((terms, constant, op, eq, offset));
    }
    if constraints.is_empty() {
        return Err(ParseError {
            message: "empty input".into(),
            offset: 0,
        });
    }
    let dim = max_var.max(1);
    let mut out = Vec::new();
    for (terms, constant, op, eq, offset) in constraints {
        let mut coeffs = vec![0.0; dim];
        for (v, c) in terms {
            coeffs[v] += c;
        }
        // Finite literals can still sum past the largest `f64`.
        if !(constant.is_finite() && coeffs.iter().all(|c| c.is_finite())) {
            return Err(out_of_range(offset));
        }
        if eq {
            let [a, b] = LinearConstraint::equality_pair(coeffs, constant);
            out.push(a);
            out.push(b);
        } else {
            out.push(LinearConstraint::new(coeffs, constant, op));
        }
    }
    Ok(GeneralizedTuple::new(out))
}

/// The error for a number no `f64` holds; the SQL lexer uses the same text.
fn out_of_range(offset: usize) -> ParseError {
    ParseError {
        message: "number out of range".into(),
        offset,
    }
}

/// Parses a single constraint. Equality inputs are rejected here (they
/// expand to two constraints); use [`parse_tuple`] for those.
pub fn parse_constraint(input: &str) -> Result<LinearConstraint, ParseError> {
    let t = parse_tuple(input)?;
    if t.constraints().len() != 1 {
        return Err(ParseError {
            message: "expected exactly one (non-equality) constraint".into(),
            offset: 0,
        });
    }
    Ok(t.constraints()[0].clone())
}

/// Splits on `&&`, tracking byte offsets for error reporting.
fn split_conjuncts(input: &str) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    let bytes = input.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b'&' && bytes[i + 1] == b'&' {
            out.push((&input[start..i], start));
            start = i + 2;
            i += 2;
        } else {
            i += 1;
        }
    }
    out.push((&input[start..], start));
    out
}

/// Parsed constraint parts: `(terms, constant, op, is_equality)`.
type ParsedParts = (Vec<(usize, f64)>, f64, RelOp, bool);

/// Parses `expr op expr` into `(lhs-rhs terms, lhs-rhs constant, op, is_eq)`
/// normalized to the `… θ 0` form.
fn parse_one(s: &str, base: usize) -> Result<ParsedParts, ParseError> {
    let (op_pos, op_len, op, eq) = find_op(s, base)?;
    let lhs = parse_expr(&s[..op_pos], base)?;
    let rhs = parse_expr(&s[op_pos + op_len..], base + op_pos + op_len)?;
    let mut terms = lhs.0;
    for (v, c) in rhs.0 {
        terms.push((v, -c));
    }
    Ok((terms, lhs.1 - rhs.1, op, eq))
}

fn find_op(s: &str, base: usize) -> Result<(usize, usize, RelOp, bool), ParseError> {
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' => {
                let len = if bytes.get(i + 1) == Some(&b'=') {
                    2
                } else {
                    1
                };
                return Ok((i, len, RelOp::Le, false));
            }
            b'>' => {
                let len = if bytes.get(i + 1) == Some(&b'=') {
                    2
                } else {
                    1
                };
                return Ok((i, len, RelOp::Ge, false));
            }
            b'=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    return Ok((i, 2, RelOp::Le, true));
                }
                return Ok((i, 1, RelOp::Le, true));
            }
            _ => {}
        }
    }
    Err(ParseError {
        message: format!("no comparison operator in '{s}'"),
        offset: base,
    })
}

/// Parses a linear expression into `(terms, constant)`.
fn parse_expr(s: &str, base: usize) -> Result<(Vec<(usize, f64)>, f64), ParseError> {
    let mut terms = Vec::new();
    let mut constant = 0.0;
    let bytes = s.as_bytes();
    let mut i = 0;
    let mut sign = 1.0;
    let mut saw_term = false;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'+' {
            sign = 1.0;
            i += 1;
        } else if c == b'-' {
            sign = -sign;
            i += 1;
        } else if c.is_ascii_digit() || c == b'.' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            let num: f64 = s[start..i].parse().map_err(|_| ParseError {
                message: format!("bad number '{}'", &s[start..i]),
                offset: base + start,
            })?;
            if !num.is_finite() {
                return Err(out_of_range(base + start));
            }
            // Optional "*" then optional variable.
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let mut starred = false;
            if j < bytes.len() && bytes[j] == b'*' {
                starred = true;
                j += 1;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
            }
            if j < bytes.len() && bytes[j].is_ascii_alphabetic() {
                let (var, j2) = parse_var(s, j, base)?;
                terms.push((var, sign * num));
                i = j2;
            } else if starred {
                return Err(ParseError {
                    message: "expected variable after '*'".into(),
                    offset: base + j,
                });
            } else {
                constant += sign * num;
            }
            sign = 1.0;
            saw_term = true;
        } else if c.is_ascii_alphabetic() {
            let (var, j) = parse_var(s, i, base)?;
            terms.push((var, sign));
            i = j;
            sign = 1.0;
            saw_term = true;
        } else {
            return Err(ParseError {
                message: format!("unexpected character '{}'", c as char),
                offset: base + i,
            });
        }
    }
    if !saw_term {
        return Err(ParseError {
            message: "empty expression".into(),
            offset: base,
        });
    }
    Ok((terms, constant))
}

/// Parses a variable name at byte `i`; returns `(0-based index, next i)`.
fn parse_var(s: &str, i: usize, base: usize) -> Result<(usize, usize), ParseError> {
    let bytes = s.as_bytes();
    let c = bytes[i] as char;
    let mut j = i + 1;
    let mut digits = String::new();
    while j < bytes.len() && bytes[j].is_ascii_digit() {
        digits.push(bytes[j] as char);
        j += 1;
    }
    let idx = match (c, digits.is_empty()) {
        ('x', false) => {
            let k: usize = digits.parse().map_err(|_| ParseError {
                message: format!("bad variable index '{digits}'"),
                offset: base + i,
            })?;
            if k == 0 {
                return Err(ParseError {
                    message: "variable indices start at 1".into(),
                    offset: base + i,
                });
            }
            k - 1
        }
        ('x', true) => 0,
        ('y', true) => 1,
        ('z', true) => 2,
        ('w', true) => 3,
        _ => {
            return Err(ParseError {
                message: format!("unknown variable '{c}{digits}'"),
                offset: base + i,
            })
        }
    };
    Ok((idx, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_halfplane() {
        let t = parse_tuple("y >= 2x + 1").unwrap();
        assert_eq!(t.dim(), 2);
        assert_eq!(t.constraints().len(), 1);
        assert!(t.contains(&[0.0, 2.0]));
        assert!(t.contains(&[0.0, 1.0]));
        assert!(!t.contains(&[0.0, 0.0]));
    }

    #[test]
    fn conjunction_square() {
        let t = parse_tuple("x >= 0 && x <= 1 && y >= 0 && y <= 1").unwrap();
        assert_eq!(t.constraints().len(), 4);
        assert!(t.contains(&[0.5, 0.5]));
        assert!(!t.contains(&[1.5, 0.5]));
    }

    #[test]
    fn explicit_star_and_floats() {
        let t = parse_tuple("2.5*x - 0.5 * y <= 3.25").unwrap();
        assert!(t.contains(&[0.0, 0.0]));
        assert!(t.contains(&[1.3, 0.0]));
        assert!(!t.contains(&[2.0, 0.0]));
    }

    #[test]
    fn both_sides_and_negatives() {
        // x - y >= -2 + 2y  ==  x - 3y + 2 >= 0
        let t = parse_tuple("x - y >= -2 + 2y").unwrap();
        assert!(t.contains(&[0.0, 0.0]));
        assert!(t.contains(&[4.0, 2.0]));
        assert!(!t.contains(&[0.0, 1.0]));
    }

    #[test]
    fn equality_becomes_pair() {
        let t = parse_tuple("y = x").unwrap();
        assert_eq!(t.constraints().len(), 2);
        assert!(t.contains(&[3.0, 3.0]));
        assert!(!t.contains(&[3.0, 4.0]));
        // "==" spelling also works.
        let t2 = parse_tuple("y == x").unwrap();
        assert_eq!(t2.constraints().len(), 2);
    }

    #[test]
    fn strict_ops_closed() {
        let t = parse_tuple("y > x && y < x + 5").unwrap();
        assert!(t.contains(&[0.0, 0.0])); // boundary allowed (closed reading)
        assert!(t.contains(&[0.0, 3.0]));
        assert!(!t.contains(&[0.0, 6.0]));
    }

    #[test]
    fn indexed_variables() {
        let t = parse_tuple("x1 + x2 + x3 <= 1 && x3 >= 0").unwrap();
        assert_eq!(t.dim(), 3);
        assert!(t.contains(&[0.2, 0.2, 0.2]));
        assert!(!t.contains(&[1.0, 1.0, 1.0]));
    }

    #[test]
    fn zw_variables() {
        let t = parse_tuple("w >= z").unwrap();
        assert_eq!(t.dim(), 4);
        assert!(t.contains(&[0.0, 0.0, 1.0, 2.0]));
        assert!(!t.contains(&[0.0, 0.0, 2.0, 1.0]));
    }

    #[test]
    fn double_negative() {
        let t = parse_tuple("--x >= 1").unwrap(); // --x == x
        assert!(t.contains(&[2.0, 0.0].as_slice()[..1].try_into().unwrap_or([2.0])));
        assert!(t.contains(&[2.0]));
        assert!(!t.contains(&[0.0]));
    }

    #[test]
    fn errors() {
        assert!(parse_tuple("").is_err());
        assert!(parse_tuple("x + y").is_err()); // no operator
        assert!(parse_tuple("x >= ").is_err()); // empty rhs
        assert!(parse_tuple("q >= 1").is_err()); // unknown variable
        assert!(parse_tuple("2* >= 1").is_err()); // dangling star
        assert!(parse_tuple("x0 >= 1").is_err()); // indices start at 1
        assert!(parse_tuple("x >= 1 && ").is_err()); // trailing conjunct
        let e = parse_tuple("x >= #").unwrap_err();
        assert!(e.to_string().contains("unexpected character"));
    }

    #[test]
    fn coefficient_accumulation() {
        // x + x >= 2  ==  2x >= 2.
        let t = parse_tuple("x + x >= 2").unwrap();
        assert!(t.contains(&[1.0]));
        assert!(!t.contains(&[0.5]));
    }

    #[test]
    fn parse_constraint_single() {
        let c = parse_constraint("y >= 2x + 1").unwrap();
        assert_eq!(c.dim(), 2);
        assert!(parse_constraint("x = 1").is_err(), "equalities are pairs");
        assert!(parse_constraint("x >= 1 && y >= 1").is_err());
    }

    #[test]
    fn huge_literals_are_out_of_range_not_a_panic() {
        let nines = "9".repeat(400);
        for input in [
            format!("y >= {nines}"),
            format!("{nines}x + y <= 1"),
            format!("x >= 1 && y <= {nines}.5"),
        ] {
            let e = parse_tuple(&input).unwrap_err();
            assert_eq!(e.message, "number out of range", "{input}");
        }
        // Each literal is finite, but their sum is not.
        let big = format!("1{}", "0".repeat(308));
        let e = parse_tuple(&format!("x >= 0 && y >= {big} + {big}")).unwrap_err();
        assert_eq!(e.message, "number out of range");
        assert_eq!(e.offset, 9, "points at the offending conjunct");
        let e = parse_tuple(&format!("{big}x + {big}x >= 1")).unwrap_err();
        assert_eq!(e.message, "number out of range");
    }

    #[test]
    fn offsets_in_errors() {
        let e = parse_tuple("x >= 1 && y >= $").unwrap_err();
        assert!(
            e.offset > 9,
            "offset {} should point into 2nd conjunct",
            e.offset
        );
    }
}
