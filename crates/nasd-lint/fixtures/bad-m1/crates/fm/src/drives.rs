//! Fixture: the fleet's own mint file may sign capabilities.

impl DriveEndpoint {
    /// The raw signature the fleet's mint is built on: allowed here.
    pub fn mint(&self, public: CapabilityPublic) -> Capability {
        public.mint(&self.gold_key(public.partition))
    }
}
