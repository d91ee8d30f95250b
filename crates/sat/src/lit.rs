//! Boolean variables and literals.
//!
//! A [`Var`] is an index into the solver's variable table; a [`Lit`] is a
//! variable together with a polarity, packed into a single `u32` using the
//! MiniSat encoding (`lit = 2 * var + sign`), which makes literals usable
//! directly as array indices in watch lists.

use std::fmt;
use std::ops::Not;

/// A boolean variable, identified by a dense non-negative index.
///
/// Variables are created by `Solver::new_var`; constructing one manually via
/// [`Var::from_index`] is useful in tests and file parsers.
///
/// ```
/// use genfv_sat::Var;
/// let v = Var::from_index(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        debug_assert!(index < (u32::MAX / 2) as usize, "variable index overflow");
        Var(index as u32)
    }

    /// Returns the dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a boolean variable or its negation.
///
/// Encoded as `2 * var + sign` where `sign == 1` means *negated*. The
/// all-ones encoding is reserved for [`Lit::UNDEF`].
///
/// ```
/// use genfv_sat::{Lit, Var};
/// let v = Var::from_index(7);
/// let p = Lit::pos(v);
/// assert_eq!(!p, Lit::neg(v));
/// assert_eq!((!p).var(), v);
/// assert!((!p).is_neg());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// A sentinel literal distinct from every real literal.
    pub const UNDEF: Lit = Lit(u32::MAX);

    /// Creates the positive literal of `var`.
    #[inline]
    pub fn pos(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// Creates the negative literal of `var`.
    #[inline]
    pub fn neg(var: Var) -> Self {
        Lit((var.0 << 1) | 1)
    }

    /// Creates a literal from a variable and a sign (`true` = negated).
    #[inline]
    pub fn new(var: Var, negated: bool) -> Self {
        Lit((var.0 << 1) | negated as u32)
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this literal is the negation of its variable.
    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this literal is the positive occurrence of its variable.
    #[inline]
    pub fn is_pos(self) -> bool {
        !self.is_neg()
    }

    /// The dense code of this literal (`2 * var + sign`), usable as an
    /// array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Lit::UNDEF {
            return write!(f, "⊥lit");
        }
        if self.is_neg() {
            write!(f, "¬x{}", self.0 >> 1)
        } else {
            write!(f, "x{}", self.0 >> 1)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Ternary assignment value used inside the solver.
///
/// `LBool` follows the MiniSat convention: `True`, `False`, `Undef`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts to `Option<bool>` (`Undef` ⇒ `None`).
    #[inline]
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_roundtrip() {
        for i in [0usize, 1, 2, 100, 65535] {
            let v = Var::from_index(i);
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn lit_encoding_matches_minisat() {
        let v = Var::from_index(5);
        assert_eq!(Lit::pos(v).code(), 10);
        assert_eq!(Lit::neg(v).code(), 11);
        assert_eq!(Lit::from_code(10), Lit::pos(v));
    }

    #[test]
    fn negation_is_involutive() {
        let v = Var::from_index(9);
        let l = Lit::pos(v);
        assert_eq!(!!l, l);
        assert_ne!(!l, l);
        assert_eq!((!l).var(), l.var());
    }

    #[test]
    fn lit_new_sign() {
        let v = Var::from_index(2);
        assert_eq!(Lit::new(v, false), Lit::pos(v));
        assert_eq!(Lit::new(v, true), Lit::neg(v));
        assert!(Lit::new(v, true).is_neg());
        assert!(Lit::new(v, false).is_pos());
    }

    #[test]
    fn lbool_option() {
        assert_eq!(LBool::True.to_option(), Some(true));
        assert_eq!(LBool::False.to_option(), Some(false));
        assert_eq!(LBool::Undef.to_option(), None);
    }

    #[test]
    fn display_formats() {
        let v = Var::from_index(3);
        assert_eq!(format!("{}", Lit::pos(v)), "x3");
        assert_eq!(format!("{}", Lit::neg(v)), "¬x3");
        assert_eq!(format!("{}", v), "x3");
    }
}
