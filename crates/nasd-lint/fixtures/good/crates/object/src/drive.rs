//! Fixture: a clean request-path module. Errors flow out as status codes
//! and the one deliberate payload copy carries a reasoned suppression.

/// Request outcome.
pub enum Status {
    /// Success.
    Ok,
    /// Malformed request.
    BadRequest,
}

/// Parse a request tag without panicking.
pub fn parse_tag(buf: &[u8]) -> Result<u8, Status> {
    buf.first().copied().ok_or(Status::BadRequest)
}

/// Keep a request header for the audit log, deliberately copied.
pub fn audit_copy(header: &[u8]) -> Vec<u8> {
    // nasd-lint: allow(hot-path-copy, "an audit record outlives the request buffer")
    header.to_vec()
}

#[cfg(test)]
mod tests {
    // Test code is exempt from H1: a copy here must not be flagged.
    #[test]
    fn copies_in_tests_are_fine() {
        let v = [1u8, 2].to_vec();
        assert_eq!(v.len(), 2);
    }
}
