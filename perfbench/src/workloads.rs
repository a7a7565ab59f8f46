//! The four workloads: one corpus R script each, run under the RIOT
//! engine at a size where the wall clock measures work, with a seeded,
//! integer-valued input generator and the pinned facts the benchmark
//! checks every run against.

/// Block size of every workload (8 KiB, 1024 doubles).
pub const BLOCK_SIZE: usize = 8192;

/// Elements per block at [`BLOCK_SIZE`].
pub const BLOCK_ELEMS: u64 = (BLOCK_SIZE / 8) as u64;

/// The seed whose output checksums are pinned in [`Spec::pin`]. Any
/// other seed is checked against the MatNamed engine instead.
pub const DEFAULT_SEED: u64 = 2009;

/// Which block device a workload runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// `MemBlockDevice`: simulated disk in memory.
    Mem,
    /// `FileBlockDevice`: one file, positioned `pread`/`pwrite`.
    File,
}

impl Device {
    /// Name recorded in the report.
    pub fn label(self) -> &'static str {
        match self {
            Device::Mem => "MemBlockDevice",
            Device::File => "FileBlockDevice",
        }
    }
}

/// Input sizes: the measured size, or a small one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size (about a second per run).
    Full,
    /// A few milliseconds per run, for tests.
    Small,
}

/// Counts and the output checksum at [`DEFAULT_SEED`], [`Scale::Full`].
/// The counts do not depend on the seed (the generators keep every
/// shape and sparsity pattern fixed), so they are checked at every seed.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    /// FNV-1a of the printed output at [`DEFAULT_SEED`].
    pub checksum: u64,
    /// Counted block reads per run; `None` where thread or prefetch
    /// timing moves them (the benchmark reports the observed range).
    pub reads: Option<u64>,
    /// Counted block writes per run (`None` as for `reads`).
    pub writes: Option<u64>,
    /// Device blocks allocated by the end of a run (inputs included).
    pub blocks: u64,
    /// Scalar operations per run.
    pub flops: u64,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// The corpus R program.
    pub script: &'static str,
    /// Device under the pool.
    pub device: Device,
    /// Buffer-pool frames (the memory cap in blocks).
    pub frames: usize,
    /// Worker threads at forcing points.
    pub threads: usize,
    /// Prefetch workers.
    pub prefetch: usize,
    /// Trace ring capacity for the traced run (no event may be dropped).
    pub ring: usize,
    /// Pinned counts and checksum.
    pub pin: Pin,
}

macro_rules! corpus {
    ($name:literal) => {
        include_str!(concat!("../../crates/bench/corpus/", $name, ".R"))
    };
}

/// Every workload, in presentation order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ridge-file",
        script: corpus!("ridge"),
        device: Device::File,
        frames: 512,
        threads: 1,
        prefetch: 2,
        ring: 1 << 16,
        pin: Pin {
            checksum: 0xedfd_d7df_14dc_9a01,
            reads: None,
            writes: None,
            blocks: 6_330,
            flops: 335_304_192,
        },
    },
    Spec {
        name: "kmeans-pressure",
        script: corpus!("kmeans"),
        device: Device::Mem,
        frames: 384,
        threads: 2,
        prefetch: 0,
        ring: 1 << 19,
        pin: Pin {
            checksum: 0x027e_fbbd_d84a_2117,
            reads: None,
            writes: None,
            blocks: 9_770,
            flops: 276_000_014,
        },
    },
    Spec {
        name: "iot-forcing",
        script: corpus!("iot"),
        device: Device::Mem,
        frames: 384,
        threads: 1,
        prefetch: 0,
        ring: 1 << 18,
        pin: Pin {
            checksum: 0x987e_cd8b_b450_a934,
            reads: Some(258),
            writes: Some(47_628),
            blocks: 48_262,
            flops: 49_572_000,
        },
    },
    Spec {
        name: "spmv-resident",
        script: corpus!("spmv"),
        device: Device::Mem,
        frames: 24_576,
        threads: 1,
        prefetch: 0,
        ring: 1 << 16,
        pin: Pin {
            checksum: 0x8be5_eddb_3cfa_2eb7,
            reads: Some(7_424),
            writes: Some(0),
            blocks: 22_912,
            flops: 1_228_860,
        },
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One pre-bound input.
pub enum Input {
    /// A scalar the script reads (sizes, iteration counts).
    Scalar(&'static str, f64),
    /// A dense vector.
    Vector(&'static str, Vec<f64>),
    /// A dense matrix, row-major.
    Matrix(&'static str, usize, usize, Vec<f64>),
    /// A sparse matrix as COO triplets with distinct coordinates.
    Sparse(&'static str, usize, usize, Vec<(usize, usize, f64)>),
}

impl Input {
    /// Stored elements (nonzeros for a sparse matrix; 0 for a scalar).
    pub fn elements(&self) -> u64 {
        match self {
            Input::Scalar(..) => 0,
            Input::Vector(_, v) | Input::Matrix(_, _, _, v) => v.len() as u64,
            Input::Sparse(_, _, _, t) => t.len() as u64,
        }
    }
}

/// ⌈input elements / elements per block⌉: the blocks a dense, untiled
/// copy of the inputs would take (the denominator of `space_amp`).
pub fn input_blocks(inputs: &[Input]) -> u64 {
    inputs
        .iter()
        .map(Input::elements)
        .sum::<u64>()
        .div_ceil(BLOCK_ELEMS)
}

/// SplitMix64: a small, seedable generator with one stream per input.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`, as a double.
    fn int(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + (self.next() % (hi - lo + 1) as u64) as i64) as f64
    }
}

/// The inputs of `spec` at `scale`, generated from `seed`. Every value is
/// an integer, so aggregates are exact and engines print identical text.
pub fn inputs(spec: &Spec, seed: u64, scale: Scale) -> Vec<Input> {
    let small = scale == Scale::Small;
    match spec.name {
        "ridge-file" => {
            let (n, p) = if small { (600, 16) } else { (20_000, 128) };
            // Data rows: an all-ones intercept column, then integers in
            // -5..=5. The last p rows are the ridge augmentation
            // sqrt(lambda) * I with lambda = 4, and y is 0 there.
            let mut rng = Rng::new(seed, 1);
            let mut x = Vec::with_capacity((n + p) * p);
            for i in 0..n + p {
                for j in 0..p {
                    x.push(match (i < n, j) {
                        (true, 0) => 1.0,
                        (true, _) => rng.int(-5, 5),
                        (false, _) if i - n == j => 2.0,
                        (false, _) => 0.0,
                    });
                }
            }
            let mut rng = Rng::new(seed, 2);
            let y = (0..n + p)
                .map(|i| if i < n { rng.int(0, 6) } else { 0.0 })
                .collect();
            vec![
                Input::Matrix("x", n + p, p, x),
                Input::Matrix("y", n + p, 1, y),
            ]
        }
        "kmeans-pressure" => {
            let (n, iters) = if small { (20_000, 2) } else { (1_000_000, 5) };
            // Three blobs around (0,0), (12,2), (2,12), offsets in -2..=2.
            let mut rng = Rng::new(seed, 3);
            let (mut px, mut py) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for _ in 0..n {
                let (cx, cy) = [(0.0, 0.0), (12.0, 2.0), (2.0, 12.0)][rng.int(0, 2) as usize];
                px.push(cx + rng.int(-2, 2));
                py.push(cy + rng.int(-2, 2));
            }
            vec![
                Input::Scalar("iters", iters as f64),
                Input::Vector("px", px),
                Input::Vector("py", py),
            ]
        }
        "iot-forcing" => {
            let (k, w) = if small { (60, 64) } else { (4_000, 64) };
            // Readings in -8..=8 plus a per-window level shift.
            let mut rng = Rng::new(seed, 4);
            let s = (0..k * w)
                .map(|i| rng.int(-8, 8) + (i / w) as f64)
                .collect();
            vec![
                Input::Scalar("k", k as f64),
                Input::Scalar("w", w as f64),
                Input::Vector("s", s),
            ]
        }
        "spmv-resident" => {
            let (n, iters) = if small { (512, 4) } else { (8_192, 60) };
            // A fixed pattern of 1..=4 nonzeros per row at distinct
            // columns (so the tile count never depends on the seed),
            // seeded values in 1..=3, and a seeded start vector.
            let mut rng = Rng::new(seed, 5);
            let mut trips = Vec::new();
            for i in 0..n {
                for j in 0..i % 4 + 1 {
                    let c = (i * 7 + j * (n / 4 + 1) + 1) % n;
                    trips.push((i, c, rng.int(1, 3)));
                }
            }
            let mut rng = Rng::new(seed, 6);
            let v = (0..n).map(|_| rng.int(1, 3)).collect();
            vec![
                Input::Scalar("iters", iters as f64),
                Input::Sparse("a", n, n, trips),
                Input::Matrix("v", n, 1, v),
            ]
        }
        other => panic!("no generator for workload '{other}'"),
    }
}

/// FNV-1a over the printed output (the corpus checksum function).
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
