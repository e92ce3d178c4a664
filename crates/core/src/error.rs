//! MPI error classes and the library error type.

use pmix::PmixError;

/// MPI error classes (subset of the standard's `MPI_ERR_*` space relevant
/// to this implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrClass {
    /// `MPI_ERR_ARG` — invalid argument.
    Arg,
    /// `MPI_ERR_RANK` — invalid rank.
    Rank,
    /// `MPI_ERR_TAG` — invalid tag.
    Tag,
    /// `MPI_ERR_COMM` — invalid communicator.
    Comm,
    /// `MPI_ERR_GROUP` — invalid group.
    Group,
    /// `MPI_ERR_TRUNCATE` — receive buffer too small.
    Truncate,
    /// `MPI_ERR_PROC_FAILED` (ULFM-style) — a peer process failed.
    ProcFailed,
    /// A peer this operation was waiting on is *already known dead* when
    /// the operation is issued or polled: the policy layer (fault-aware
    /// waits, the [`crate::ElasticComm`] rebuild) returns this instead of
    /// burning a timeout budget on a peer that can never answer.
    /// Distinct from [`ErrClass::ProcFailed`], which reports a failure the
    /// runtime *discovered* while the operation was in flight.
    ProcTerminated,
    /// `MPI_ERR_UNSUPPORTED_OPERATION`.
    Unsupported,
    /// `MPI_ERR_SESSION` — invalid or finalized session.
    Session,
    /// Stale pset epoch: the registry moved past the requested version
    /// (a torn read on the elastic rebuild path).
    Stale,
    /// `MPI_ERR_PENDING` / timeout from the runtime.
    Timeout,
    /// `MPI_ERR_INTERN` — implementation error.
    Intern,
    /// `MPI_ERR_OTHER`.
    Other,
}

/// The error type returned by fallible MPI operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiError {
    /// The error class (`MPI_Error_class` analog).
    pub class: ErrClass,
    /// Human-readable detail (`MPI_Error_string` analog).
    pub message: String,
}

impl MpiError {
    /// Construct an error.
    pub fn new(class: ErrClass, message: impl Into<String>) -> Self {
        Self { class, message: message.into() }
    }

    /// Shorthand for internal errors.
    pub fn intern(message: impl Into<String>) -> Self {
        Self::new(ErrClass::Intern, message)
    }
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MPI error ({:?}): {}", self.class, self.message)
    }
}

impl std::error::Error for MpiError {}

impl From<PmixError> for MpiError {
    fn from(e: PmixError) -> Self {
        let class = match &e {
            PmixError::Timeout => ErrClass::Timeout,
            PmixError::ProcTerminated(_) => ErrClass::ProcFailed,
            PmixError::NotFound(_) => ErrClass::Arg,
            PmixError::BadParam(_) => ErrClass::Arg,
            PmixError::Unreachable => ErrClass::ProcFailed,
            PmixError::NotMember => ErrClass::Group,
            PmixError::Exists(_) => ErrClass::Arg,
            PmixError::Declined(_) => ErrClass::Group,
            PmixError::Internal(_) => ErrClass::Intern,
        };
        MpiError::new(class, e.to_string())
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MpiError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_class_and_message() {
        let e = MpiError::new(ErrClass::Truncate, "message too long");
        let s = e.to_string();
        assert!(s.contains("Truncate"));
        assert!(s.contains("message too long"));
    }

    #[test]
    fn pmix_errors_map_to_classes() {
        assert_eq!(MpiError::from(PmixError::Timeout).class, ErrClass::Timeout);
        assert_eq!(
            MpiError::from(PmixError::ProcTerminated(pmix::ProcId::new("j", 0))).class,
            ErrClass::ProcFailed
        );
        assert_eq!(MpiError::from(PmixError::NotMember).class, ErrClass::Group);
    }
}
