//! Fixture: M1 violations in the backup store. Its own list capability
//! and its own object capability, next to the allowed fleet mint.

impl ChunkStore {
    /// Lists under a partition capability it signed itself: flagged.
    fn list(&self, ep: &DriveEndpoint, partition: PartitionId) -> Capability {
        ep.mint_partition(partition, Rights::GETATTR, 3_600)
    }

    /// Signs at a version it made up: flagged.
    fn ro_cap(&self, ep: &DriveEndpoint, object: ObjectId) -> Capability {
        ep.mint(P, object, Version(0), Rights::READ, ByteRange::FULL, 3_600)
    }

    /// Mints at the version the fleet tracks: allowed.
    fn mint(&self, fh: FileHandle, rights: Rights) -> Result<Capability, FmError> {
        Ok(self.fleet.mint(fh, rights, ByteRange::FULL)?.1)
    }
}
