//! Pinned inputs and outputs at the default seed.
//!
//! A generator edit that changes what a workload measures must fail
//! loudly, not shift the numbers: at `--seed 42` each workload's generated
//! input must hash to `input_fingerprint` (else every operation of the run
//! counts as failed) and its output must match `rows` / `checksum`.
//! After an intended change, run the workload at the default seed with
//! `--quick`: the two messages below print the values to paste here. Say
//! so in the change's description.

pub struct Golden {
    pub workload: &'static str,
    pub input_fingerprint: u64,
    /// Batch: rows summed over the derived relations. `serve_mix`: the
    /// transitive closure's rows when the server is primed.
    pub rows: u64,
    /// Batch: order-independent checksum of those rows. `serve_mix`: the
    /// number of connected components when the server is primed.
    pub checksum: u64,
}

pub const GOLDEN: &[Golden] = &[
    Golden {
        workload: "tc_gnp",
        input_fingerprint: 0x22c6_965b_e858_fc87,
        rows: 15_996_000,
        checksum: 0xe170_8902_7678_727d,
    },
    Golden {
        workload: "cspa",
        input_fingerprint: 0x9f1e_b3e3_64b4_61d9,
        rows: 39_228,
        checksum: 0x3754_de9d_6176_feb9,
    },
    Golden {
        workload: "cc_rmat",
        input_fingerprint: 0xeff1_1413_c600_23f3,
        rows: 275_230,
        checksum: 0x8d63_daf1_4f40_3b67,
    },
    Golden {
        workload: "tri_rmat",
        input_fingerprint: 0x34f3_9398_6a1e_06b6,
        rows: 482_722,
        checksum: 0x51de_b51e_0947_4576,
    },
    Golden {
        workload: "serve_mix",
        input_fingerprint: 0x3a0e_d62a_ad28_424e,
        rows: 168_408,
        checksum: 4,
    },
];

/// The pin that applies to this run — there is one only at the default
/// seed — and whether the generated input has drifted from it. Drift is
/// reported here; the caller then counts every operation as failed.
pub fn pinned(workload: &str, seed: u64, fingerprint: u64) -> (Option<&'static Golden>, bool) {
    let golden = (seed == crate::DEFAULT_SEED)
        .then(|| GOLDEN.iter().find(|g| g.workload == workload))
        .flatten();
    let drifted = golden.is_some_and(|g| g.input_fingerprint != fingerprint);
    if drifted {
        eprintln!(
            "perfbench: {workload}: input fingerprint {fingerprint:#018x} differs from the \
             golden one; every operation of this run counts as failed"
        );
    }
    (golden, drifted)
}

impl Golden {
    /// Whether the run's output is the pinned one; a mismatch is reported.
    pub fn output_matches(&self, rows: u64, checksum: u64) -> bool {
        let same = (self.rows, self.checksum) == (rows, checksum);
        if !same {
            eprintln!(
                "perfbench: {}: output ({rows}, {checksum:#018x}) differs from the golden \
                 ({}, {:#018x})",
                self.workload, self.rows, self.checksum
            );
        }
        same
    }
}
