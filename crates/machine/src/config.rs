//! Machine configuration: the parameters `p`, `M`, `B`, `b`, `s` of the paper's model.

/// Parameters of the simulated machine.
///
/// The names follow the paper: `p` processors, each with a private cache of `M` words split
/// into blocks (cache lines) of `B` words; a cache miss costs `b` time units; a successful
/// steal costs `s` time units and an unsuccessful one `s_fail <= s` time units (the paper
/// allows unsuccessful steals to be cheaper, Section 5). The paper assumes `s >= b`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of processors `p`.
    pub procs: usize,
    /// Private cache capacity `M`, in words.
    pub cache_words: u64,
    /// Block (cache line) size `B`, in words.
    pub block_words: u64,
    /// Cost of a cache or block miss, `b`, in time units.
    pub miss_cost: u64,
    /// Cost of a successful steal, `s`, in time units.
    pub steal_cost: u64,
    /// Cost of an unsuccessful steal attempt, `O(s)`; must be `<= steal_cost`.
    pub failed_steal_cost: u64,
}

impl MachineConfig {
    /// A small default machine: 4 processors, 4096-word caches, 8-word blocks, `b = 4`,
    /// `s = 8` (so `s >= b` as the paper assumes).
    pub fn small() -> Self {
        MachineConfig {
            procs: 4,
            cache_words: 4096,
            block_words: 8,
            miss_cost: 4,
            steal_cost: 8,
            failed_steal_cost: 8,
        }
    }

    /// A machine resembling a contemporary multicore: 64-word (512-byte-per-8-byte-word)
    /// blocks are unrealistic, so we use 8 words per line and a 32 Ki-word L1-like cache.
    pub fn realistic(procs: usize) -> Self {
        MachineConfig {
            procs,
            cache_words: 32 * 1024,
            block_words: 8,
            miss_cost: 16,
            steal_cost: 64,
            failed_steal_cost: 32,
        }
    }

    /// Builder-style setter for the number of processors.
    pub fn with_procs(mut self, procs: usize) -> Self {
        self.procs = procs;
        self
    }

    /// Builder-style setter for the cache size `M` (words).
    pub fn with_cache_words(mut self, m: u64) -> Self {
        self.cache_words = m;
        self
    }

    /// Builder-style setter for the block size `B` (words).
    pub fn with_block_words(mut self, b: u64) -> Self {
        self.block_words = b;
        self
    }

    /// Builder-style setter for the miss cost `b`.
    pub fn with_miss_cost(mut self, b: u64) -> Self {
        self.miss_cost = b;
        self
    }

    /// Builder-style setter for the steal cost `s` (both successful and failed).
    pub fn with_steal_cost(mut self, s: u64) -> Self {
        self.steal_cost = s;
        self.failed_steal_cost = s;
        self
    }

    /// Number of cache lines per private cache, `M / B` (at least 1).
    pub fn lines_per_cache(&self) -> usize {
        ((self.cache_words / self.block_words).max(1)) as usize
    }

    /// Validate the configuration, returning a descriptive error if it is inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.procs == 0 {
            return Err("machine must have at least one processor".into());
        }
        if self.block_words == 0 {
            return Err("block size B must be at least 1 word".into());
        }
        if self.cache_words < self.block_words {
            return Err(format!(
                "cache size M = {} must be at least the block size B = {}",
                self.cache_words, self.block_words
            ));
        }
        if self.miss_cost == 0 {
            return Err("miss cost b must be positive".into());
        }
        if self.steal_cost < self.miss_cost {
            return Err(format!(
                "the paper assumes s >= b, got s = {} < b = {}",
                self.steal_cost, self.miss_cost
            ));
        }
        if self.failed_steal_cost > self.steal_cost {
            return Err("failed-steal cost must be at most the successful steal cost".into());
        }
        if self.failed_steal_cost == 0 {
            return Err("failed-steal cost must be positive".into());
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_is_valid() {
        MachineConfig::small().validate().unwrap();
    }

    #[test]
    fn realistic_is_valid() {
        MachineConfig::realistic(16).validate().unwrap();
    }

    #[test]
    fn lines_per_cache() {
        let c = MachineConfig::small();
        assert_eq!(c.lines_per_cache(), (4096 / 8) as usize);
        let tiny = MachineConfig::small().with_cache_words(8).with_block_words(8);
        assert_eq!(tiny.lines_per_cache(), 1);
    }

    #[test]
    fn rejects_zero_procs() {
        let mut c = MachineConfig::small();
        c.procs = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_cache_smaller_than_block() {
        let c = MachineConfig::small().with_cache_words(4).with_block_words(8);
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_steal_cheaper_than_miss() {
        let mut c = MachineConfig::small();
        c.steal_cost = 1;
        c.failed_steal_cost = 1;
        c.miss_cost = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_failed_steal_more_expensive_than_steal() {
        let mut c = MachineConfig::small();
        c.failed_steal_cost = c.steal_cost + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let c = MachineConfig::small()
            .with_procs(9)
            .with_block_words(16)
            .with_cache_words(1 << 14)
            .with_miss_cost(2)
            .with_steal_cost(10);
        assert_eq!(c.procs, 9);
        assert_eq!(c.block_words, 16);
        assert_eq!(c.cache_words, 1 << 14);
        assert_eq!(c.miss_cost, 2);
        assert_eq!(c.steal_cost, 10);
        assert_eq!(c.failed_steal_cost, 10);
        c.validate().unwrap();
    }
}
