//! The error every config validator in the workspace returns.

use std::fmt;

/// A range rule a configuration breaks, as reported by the `validate()`
/// of the type that owns the rule.
///
/// `field` is spelled the way a scenario document spells the key that
/// sets it, unit suffix included (`duration_s`, `fill_period_ms`), so a
/// front end can point at the line that set it; a rule on a list no
/// key sets names the list (`stations`). `station`, `flow` and `cell`
/// say which element of a list the field belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigError {
    /// The offending field.
    pub field: &'static str,
    /// The station (or its placement) the field belongs to.
    pub station: Option<usize>,
    /// The flow of that station, for per-flow rules.
    pub flow: Option<usize>,
    /// The cell (access point) the field belongs to.
    pub cell: Option<usize>,
    /// What is wrong, as one sentence.
    pub msg: String,
}

impl ConfigError {
    /// An error on a top-level `field`.
    pub fn new(field: &'static str, msg: impl Into<String>) -> Self {
        ConfigError {
            field,
            station: None,
            flow: None,
            cell: None,
            msg: msg.into(),
        }
    }

    /// An error on `field` that reads `key '<field>' <rule>`.
    pub fn key(field: &'static str, rule: &str) -> Self {
        Self::new(field, format!("key '{field}' {rule}"))
    }

    /// `Ok` when `ok`, else [`ConfigError::key`]; allocates only then.
    #[inline]
    pub fn check(ok: bool, field: &'static str, rule: &str) -> Result<(), Self> {
        if ok {
            return Ok(());
        }
        Err(Self::key(field, rule))
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = [
            ("cell", self.cell),
            ("station", self.station),
            ("flow", self.flow),
        ];
        for (what, i) in at {
            if let Some(i) = i {
                write!(f, "{what} {i}: ")?;
            }
        }
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ConfigError {}
