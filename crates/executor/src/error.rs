//! Executor errors.

use reopt_expr::EvalError;
use reopt_storage::StorageError;
use std::fmt;

/// Errors raised while executing a physical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A table referenced by the plan does not exist (e.g. dropped between planning and
    /// execution).
    TableNotFound(String),
    /// A column could not be resolved against an operator's input schema.
    BindError(String),
    /// An expression failed to evaluate.
    Eval(String),
    /// The plan shape was invalid (wrong number of children, missing index, ...).
    InvalidPlan(String),
    /// Execution was suspended by an [`ExecutionObserver`](crate::exec::ExecutionObserver)
    /// — at a pipeline-breaker boundary, a streaming progress report, or the root
    /// batch seam — so a re-optimizer can take over. Not a failure: the pipeline's
    /// completed breaker state remains extractable via
    /// [`Pipeline::take_breaker_states`](crate::exec::Pipeline::take_breaker_states).
    Suspended,
    /// Out-of-core execution failed: a spill-file I/O error, or a grace-hash build
    /// row wider than the whole memory budget (no repartitioning can split it).
    Spill(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::TableNotFound(name) => write!(f, "table '{name}' not found at execution"),
            ExecError::BindError(detail) => write!(f, "binding error: {detail}"),
            ExecError::Eval(detail) => write!(f, "evaluation error: {detail}"),
            ExecError::InvalidPlan(detail) => write!(f, "invalid plan: {detail}"),
            ExecError::Suspended => {
                write!(f, "execution suspended at a pipeline-breaker boundary for re-optimization")
            }
            ExecError::Spill(detail) => write!(f, "spill error: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EvalError> for ExecError {
    fn from(err: EvalError) -> Self {
        ExecError::Eval(err.to_string())
    }
}

impl From<StorageError> for ExecError {
    fn from(err: StorageError) -> Self {
        match err {
            StorageError::TableNotFound(name) => ExecError::TableNotFound(name),
            other => ExecError::BindError(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ExecError = EvalError::DivisionByZero.into();
        assert!(matches!(e, ExecError::Eval(_)));
        let e: ExecError = StorageError::TableNotFound("t".into()).into();
        assert_eq!(e, ExecError::TableNotFound("t".into()));
        let e: ExecError = StorageError::ColumnNotFound("c".into()).into();
        assert!(matches!(e, ExecError::BindError(_)));
        assert!(ExecError::InvalidPlan("x".into()).to_string().contains("x"));
    }
}
