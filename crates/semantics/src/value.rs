//! Runtime values.

use std::fmt;

/// A runtime value: number, boolean, or list.
///
/// Numbers are `f64` at runtime — the sampled Laplace noise is continuous —
/// while all *static* reasoning (type checking, verification) uses exact
/// rationals. The two worlds never mix.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A real number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A list (paper lists grow at the front via `::`).
    List(Vec<Value>),
}

impl Value {
    /// Numeric constructor.
    pub fn num(x: f64) -> Value {
        Value::Num(x)
    }

    /// List-of-numbers constructor.
    pub fn num_list(xs: impl IntoIterator<Item = f64>) -> Value {
        Value::List(xs.into_iter().map(Value::Num).collect())
    }

    /// The number inside, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean inside, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The list inside, if any.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(xs) => Some(xs),
            _ => None,
        }
    }

    /// A canonical text rendering used by the empirical tester to bucket
    /// outputs into discrete events. Numbers render with full precision;
    /// callers that need coarser events pre-project the value.
    pub fn event_key(&self) -> String {
        match self {
            Value::Num(x) => format!("{x}"),
            Value::Bool(b) => format!("{b}"),
            Value::List(xs) => {
                let parts: Vec<String> = xs.iter().map(Value::event_key).collect();
                format!("[{}]", parts.join(","))
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::List(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::num(1.5).as_num(), Some(1.5));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::num(1.0).as_bool(), None);
        let l = Value::num_list([1.0, 2.0]);
        assert_eq!(l.as_list().unwrap().len(), 2);
    }

    #[test]
    fn event_keys_distinguish_values() {
        assert_ne!(Value::num(1.0).event_key(), Value::num(2.0).event_key());
        assert_ne!(
            Value::List(vec![Value::Bool(true)]).event_key(),
            Value::List(vec![Value::Bool(false)]).event_key()
        );
    }

    #[test]
    fn display() {
        assert_eq!(Value::num_list([1.0, 2.0]).to_string(), "[1, 2]");
    }
}
