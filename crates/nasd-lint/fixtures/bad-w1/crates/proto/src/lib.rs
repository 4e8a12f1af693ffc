//! Fixture: W1 violations. `NasdStatus::Busy` is encoded and decoded but
//! missing from the retry matrix, and `RequestBody::Format` has a codec
//! and a mutation-matrix row but no declared authority — nasd-lint must
//! report W1 for each and exit nonzero.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]
#![deny(clippy::cast_possible_truncation)]

/// Wire status codes.
pub enum NasdStatus {
    /// Success.
    Ok,
    /// Transient contention.
    Busy,
}

/// Retry classification.
pub enum RetryClass {
    /// Finished.
    Done,
    /// Retry later.
    Transient,
}

impl NasdStatus {
    /// Wire encoding.
    pub fn to_byte(self) -> u8 {
        match self {
            NasdStatus::Ok => 0,
            NasdStatus::Busy => 1,
        }
    }

    /// Wire decoding.
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(NasdStatus::Ok),
            1 => Some(NasdStatus::Busy),
            _ => None,
        }
    }

    /// Fault-injection retry matrix — forgot `Busy`.
    pub fn retry_class(self) -> RetryClass {
        match self {
            NasdStatus::Ok => RetryClass::Done,
            _ => RetryClass::Transient,
        }
    }
}

/// Drive requests.
pub enum RequestBody {
    /// Read data.
    Read,
    /// Reformat the drive.
    Format,
}

/// Who authorizes a request.
pub enum Authority {
    /// A capability.
    Capability,
}

/// Encoding half of the codec.
pub trait WireEncode {
    /// Tag byte.
    fn tag(&self) -> u8;
}

/// Decoding half of the codec.
pub trait WireDecode: Sized {
    /// From a tag byte.
    fn from_tag(tag: u8) -> Option<Self>;
}

impl WireEncode for RequestBody {
    fn tag(&self) -> u8 {
        match self {
            RequestBody::Read => 0,
            RequestBody::Format => 1,
        }
    }
}

impl WireDecode for RequestBody {
    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(RequestBody::Read),
            1 => Some(RequestBody::Format),
            _ => None,
        }
    }
}

impl RequestBody {
    /// Mutation matrix.
    pub fn mutates(&self) -> bool {
        match self {
            RequestBody::Read => false,
            RequestBody::Format => true,
        }
    }

    /// Authority table — forgot `Format`, so it inherits `Read`'s row.
    pub fn authority(&self) -> Authority {
        match self {
            RequestBody::Read => Authority::Capability,
            _ => Authority::Capability,
        }
    }
}
