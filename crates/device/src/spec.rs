//! Hardware specifications for the simulated platform.
//!
//! Defaults approximate the paper's testbed: an Intel Xeon Gold 6226R
//! (16 cores, 2.9 GHz) and an NVIDIA RTX A6000 (84 SMs, ~38.7 TFLOP/s fp32,
//! 768 GB/s GDDR6) connected over PCIe 4.0 x16. The numbers are first-order
//! datasheet values; the reproduction targets *shapes* (ratios, crossovers,
//! proportions), not the authors' absolute milliseconds.

/// Simulated CPU specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Number of physical cores.
    pub cores: u32,
    /// Aggregate peak fp32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Sustained sequential memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Fraction of `mem_bw` achieved under irregular (pointer-chasing /
    /// gather) access patterns — the penalty behind the paper's sampling
    /// bottleneck.
    pub irregular_efficiency: f64,
    /// Framework dispatch overhead charged per operator, in nanoseconds
    /// (the Python/op-dispatch cost PyTorch pays per op on CPU).
    pub dispatch_overhead_ns: u64,
    /// Data-parallel width at which the CPU saturates (elements of
    /// parallel work needed to engage all cores and SIMD lanes).
    pub saturation_width: u64,
    /// Fraction of peak FLOP/s a typical framework kernel achieves even
    /// at full occupancy (instruction mix, blocking, launch tails).
    pub kernel_efficiency: f64,
    /// Per-parameter-tensor allocation/copy overhead during CPU model
    /// initialization, in nanoseconds (framework tensor construction).
    pub model_init_per_tensor_ns: u64,
    /// Throughput of framework-level host preprocessing loops
    /// (temporal sampling, t-batching, snapshot assembly) in
    /// operations/s. Deliberately far below `peak_flops`: these loops run
    /// as interpreted / scalar framework code, which is exactly why the
    /// paper finds sampling on the CPU dominating inference.
    pub host_ops_per_sec: f64,
}

impl Default for CpuSpec {
    fn default() -> Self {
        CpuSpec {
            cores: 16,
            peak_flops: 1.3e12,
            mem_bw: 120e9,
            irregular_efficiency: 0.08,
            dispatch_overhead_ns: 1_500,
            saturation_width: 16 * 256,
            kernel_efficiency: 0.5,
            model_init_per_tensor_ns: 50_000,
            host_ops_per_sec: 2.0e8,
        }
    }
}

/// Simulated GPU specification.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Aggregate peak fp32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Device memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Fraction of `mem_bw` achieved under irregular access.
    pub irregular_efficiency: f64,
    /// Kernel launch overhead (driver + queueing) in nanoseconds.
    pub launch_overhead_ns: u64,
    /// Data-parallel width (lanes) at which the GPU saturates.
    pub saturation_width: u64,
    /// Fraction of peak FLOP/s a typical framework kernel achieves even
    /// at full occupancy.
    pub kernel_efficiency: f64,
    /// One-time CUDA context (lazy) initialization cost in nanoseconds.
    pub context_init_ns: u64,
    /// Fixed model-initialization cost (stream capture, cuDNN plan
    /// selection) in nanoseconds.
    pub model_init_base_ns: u64,
    /// Per-parameter-tensor allocation/registration cost during model
    /// initialization, in nanoseconds.
    pub model_init_per_tensor_ns: u64,
    /// Per-run activation allocation base cost in nanoseconds (the
    /// constant part of Table 2's per-batch warm-up).
    pub alloc_base_ns: u64,
    /// Additional allocation cost per byte of peak activation memory, in
    /// nanoseconds per byte (the growing part of Table 2's warm-up).
    pub alloc_per_byte_ns: f64,
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec {
            sm_count: 84,
            peak_flops: 38.7e12,
            mem_bw: 768e9,
            irregular_efficiency: 0.12,
            launch_overhead_ns: 6_000,
            saturation_width: 84 * 1_024,
            kernel_efficiency: 0.2,
            context_init_ns: 6_000_000_000,
            model_init_base_ns: 500_000_000,
            model_init_per_tensor_ns: 400_000,
            alloc_base_ns: 5_000_000,
            alloc_per_byte_ns: 0.3,
        }
    }
}

/// PCIe link between the simulated CPU and GPU.
///
/// The link is modeled in two regimes, selected per executor with
/// [`TransferMode`]:
///
/// * **Pinned** (page-locked host memory): DMA streams directly from
///   the host buffer at `bandwidth` after `latency_ns` of setup — the
///   historical (and default) pricing.
/// * **Pageable**: the driver must first copy the payload into an
///   internal pinned staging buffer (`staging_bandwidth`, a host
///   memcpy), then DMA it at the degraded `pageable_bandwidth`, and
///   every transfer additionally pays `host_meta_ns` of host-side
///   metadata bookkeeping (page pinning, address translation, command
///   submission) per "Understanding and Reducing Metadata-Driven Host
///   Overheads" — the term that dominates small-transfer workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieSpec {
    /// Effective bandwidth from pinned (page-locked) host memory, in
    /// bytes/s.
    pub bandwidth: f64,
    /// Fixed per-transfer latency (driver + DMA setup) in nanoseconds.
    pub latency_ns: u64,
    /// Effective DMA bandwidth from pageable host memory, in bytes/s
    /// (roughly half of pinned on the paper's testbed class).
    pub pageable_bandwidth: f64,
    /// Host-memcpy bandwidth into the driver's pinned staging buffer,
    /// in bytes/s (bounded by host memory bandwidth, paid only in
    /// pageable mode).
    pub staging_bandwidth: f64,
    /// Per-transfer host metadata overhead (page pinning, address
    /// translation, submission bookkeeping) in nanoseconds, paid only
    /// in pageable mode.
    pub host_meta_ns: u64,
}

impl Default for PcieSpec {
    fn default() -> Self {
        PcieSpec {
            bandwidth: 12e9,
            latency_ns: 12_000,
            pageable_bandwidth: 6.6e9,
            staging_bandwidth: 20e9,
            host_meta_ns: 5_000,
        }
    }
}

/// Which host-memory regime CPU↔GPU transfers are priced under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransferMode {
    /// Page-locked host buffers: direct DMA at [`PcieSpec::bandwidth`].
    /// The default, bit-identical to the historical pricing.
    #[default]
    Pinned,
    /// Pageable host buffers: a staging-buffer copy, degraded DMA
    /// bandwidth, and per-transfer host metadata overhead.
    Pageable,
}

impl TransferMode {
    /// Stable lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TransferMode::Pinned => "pinned",
            TransferMode::Pageable => "pageable",
        }
    }
}

/// Index of a GPU in the platform's device graph, `0..n_gpus()`. Device
/// 0 is the historical single GPU and devices 1..N are the
/// [`PlatformSpec::extra_gpus`]; every device is priced against
/// [`PlatformSpec::gpu`].
pub type DeviceId = usize;

/// One directed interconnect edge between two GPUs (NVLink-class when
/// present; absence of an edge means transfers bounce through the host).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Effective peer-to-peer bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Fixed per-transfer latency (driver + route setup) in nanoseconds.
    pub latency_ns: u64,
}

impl LinkSpec {
    /// A third-generation NVLink bridge pair: ~112.5 GB/s effective per
    /// direction, with a far smaller setup latency than a PCIe DMA.
    pub fn nvlink() -> Self {
        LinkSpec {
            bandwidth: 112.5e9,
            latency_ns: 2_000,
        }
    }
}

/// How a cross-device transfer between two GPUs is routed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeerPath {
    /// A direct peer link (NVLink / P2P-enabled PCIe switch): one hop at
    /// the edge's bandwidth.
    Direct(LinkSpec),
    /// No peer edge: the payload bounces through host memory — a D2H
    /// then an H2D over each device's PCIe link.
    HostStaged,
}

/// Complete platform: CPU + GPU(s) + interconnect graph.
///
/// `PlatformSpec::default()` is the paper's testbed (Xeon 6226R + A6000
/// over PCIe 4.0) in the historical single-GPU shape: no extra GPUs and
/// no peer link, so every serialized comparison against it is
/// unchanged. Every GPU is an identical `gpu` and owns an identical
/// host PCIe link (`pcie`), so host↔device traffic to different devices
/// proceeds in parallel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlatformSpec {
    /// The host CPU.
    pub cpu: CpuSpec,
    /// The accelerator (replicated per device).
    pub gpu: GpuSpec,
    /// The CPU↔GPU link (replicated per device).
    pub pcie: PcieSpec,
    /// Number of GPUs beside device 0, each identical to `gpu`. Zero for
    /// the historical single-GPU platform.
    pub extra_gpus: usize,
    /// The direct edge between every ordered pair of distinct devices (an
    /// NVLink clique), or `None` when all peer traffic bounces through
    /// the host.
    pub peer_link: Option<LinkSpec>,
}

impl PlatformSpec {
    /// An `n`-GPU box of testbed-class devices fully connected by NVLink
    /// (every ordered pair of distinct devices has a direct edge).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn multi_gpu_nvlink(n: usize) -> Self {
        PlatformSpec {
            peer_link: Some(LinkSpec::nvlink()),
            ..PlatformSpec::multi_gpu_pcie(n)
        }
    }

    /// An `n`-GPU box of testbed-class devices with no peer links: every
    /// cross-device transfer bounces through host memory over PCIe.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn multi_gpu_pcie(n: usize) -> Self {
        assert!(n > 0, "a platform needs at least one GPU");
        PlatformSpec {
            extra_gpus: n - 1,
            ..PlatformSpec::default()
        }
    }

    /// Number of GPUs in the device graph (≥ 1).
    pub fn n_gpus(&self) -> usize {
        1 + self.extra_gpus
    }

    /// How a transfer from `src` to `dst` is routed: the peer link
    /// between two distinct devices when the platform has one, a
    /// host-staged bounce otherwise.
    pub fn peer_path(&self, src: DeviceId, dst: DeviceId) -> PeerPath {
        match self.peer_link {
            Some(link) if src != dst => PeerPath::Direct(link),
            _ => PeerPath::HostStaged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_physically_plausible() {
        let p = PlatformSpec::default();
        assert!(p.gpu.peak_flops > p.cpu.peak_flops * 10.0);
        assert!(p.gpu.mem_bw > p.cpu.mem_bw);
        assert!(p.pcie.bandwidth < p.cpu.mem_bw);
        assert!(p.cpu.irregular_efficiency < 0.5);
        // Pageable DMA is slower than pinned; the staging memcpy is
        // faster than the link (it is a host-memory copy) but bounded
        // by host memory bandwidth.
        assert!(p.pcie.pageable_bandwidth < p.pcie.bandwidth);
        assert!(p.pcie.staging_bandwidth > p.pcie.bandwidth);
        assert!(p.pcie.staging_bandwidth < p.cpu.mem_bw);
        assert!(p.pcie.host_meta_ns < p.pcie.latency_ns);
    }

    #[test]
    fn transfer_mode_defaults_to_pinned() {
        assert_eq!(TransferMode::default(), TransferMode::Pinned);
        assert_eq!(TransferMode::Pinned.name(), "pinned");
        assert_eq!(TransferMode::Pageable.name(), "pageable");
    }

    #[test]
    fn default_platform_is_a_single_gpu_graph() {
        let p = PlatformSpec::default();
        assert_eq!(p.n_gpus(), 1);
        assert_eq!(p.peer_path(0, 0), PeerPath::HostStaged);
        // The device graph is invisible to the historical constructors.
        assert_eq!(PlatformSpec::multi_gpu_nvlink(1).n_gpus(), 1);
        assert_eq!(PlatformSpec::multi_gpu_pcie(1), PlatformSpec::default());
    }

    #[test]
    fn nvlink_topology_is_fully_connected() {
        let p = PlatformSpec::multi_gpu_nvlink(4);
        assert_eq!(p.n_gpus(), 4);
        for src in 0..4 {
            for dst in 0..4 {
                match p.peer_path(src, dst) {
                    PeerPath::Direct(link) if src != dst => {
                        assert_eq!(link, LinkSpec::nvlink());
                        // NVLink is strictly better than host PCIe.
                        assert!(link.bandwidth > p.pcie.bandwidth);
                        assert!(link.latency_ns < p.pcie.latency_ns);
                    }
                    PeerPath::HostStaged if src == dst => {}
                    other => panic!("unexpected path {src}->{dst}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pcie_topology_bounces_through_the_host() {
        let p = PlatformSpec::multi_gpu_pcie(4);
        assert_eq!(p.n_gpus(), 4);
        assert_eq!(p.peer_path(0, 3), PeerPath::HostStaged);
        assert_eq!(p.peer_path(2, 1), PeerPath::HostStaged);
    }
}
