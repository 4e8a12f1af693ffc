//! Fixture: M1 violation. A storage manager signing a component
//! capability itself, at a version it made up, next to the allowed call
//! through the fleet's mint.

impl CheopsManager {
    /// Signs around the fleet's version table: flagged.
    pub fn party(&self, c: Component, rights: Rights) -> (&DriveEndpoint, Capability) {
        let ep = self.endpoint(c.drive);
        let cap = ep.mint(c.partition, c.object, Version(0), rights, ByteRange::FULL, 3_600);
        (ep, cap)
    }

    /// Mints at the version the fleet tracks: allowed.
    pub fn open(&self, c: Component, rights: Rights) -> Result<Capability, FmError> {
        Ok(self.fleet.mint(c, rights, ByteRange::FULL)?.1)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_sign_raw_capabilities() {
        let cap = ep.mint(p, o, Version(0), Rights::READ, ByteRange::FULL, 10);
        assert_eq!(cap.public.version, Version(0));
    }
}
