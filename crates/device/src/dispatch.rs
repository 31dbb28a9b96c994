//! The unified device-dispatch layer: one call executes the functional
//! math, charges the kernel, and keeps tensor residence honest.
//!
//! Before this layer existed, every model hand-paired a kernel launch
//! with the matching `dgnn-tensor` call and hand-inserted
//! `transfer()` calls where data crossed PCIe — three things that could
//! silently drift apart. [`Dispatcher`] fuses them:
//!
//! * each typed op (e.g. [`Dispatcher::matmul`]) derives its
//!   [`OpDescriptor`] from the *actual operand shapes*, so priced work
//!   equals computed work by construction;
//! * operands carry a residence tag ([`DeviceTensor`]); any op whose
//!   input is not resident on the compute device charges the H2D/D2H
//!   copy automatically, so transfers are derived from residence
//!   crossings rather than sprinkled through model code;
//! * in CPU-only mode the compute device *is* the host, so no crossing
//!   ever occurs and no transfer is ever charged — the paper's
//!   "CPU inference has no memcpy" property falls out for free.
//!
//! Representative-batch economics are handled by a per-tensor `scale`:
//! models that materialize only a capped number of representative rows
//! tag the tensor with the logical/physical row ratio, and every
//! descriptor (and residence copy) is scaled by it. Because all batch
//! dimensions in the model zoo are linear in the row count, the scaled
//! price equals the full-batch price exactly.
//!
//! ## Transfer coalescing
//!
//! A dispatcher created with [`Dispatcher::with_coalescing`] defers
//! residence-crossing copies instead of pricing each one immediately:
//! same-direction bytes accumulate in a staging buffer and
//! [`Dispatcher::flush_transfers`] charges them as *one* PCIe
//! transaction per direction — one link latency plus summed
//! bytes/bandwidth. This models batching many small per-tensor memcpys
//! (node features, timestamps, index arrays) into a packed staging
//! buffer, the §5 mitigation for the data-movement bottleneck. Total
//! bytes are conserved exactly; only the event count (and therefore the
//! per-transfer latency overhead) shrinks. Callers that enable
//! coalescing own the matching [`Dispatcher::flush_transfers`] — the
//! byte-conservation invariant tests enforce that no staged copy
//! escapes pricing.
//!
//! ## Lanes and tracing
//!
//! Forks, joins and events are the executor's own, reached through
//! [`Dispatcher::executor`]. Each trace record the dispatcher logs is
//! built at its call site and appended through the executor's one gate.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use dgnn_tensor::{cost, OpDescriptor, Result, Tensor};

use crate::cache::TensorClass;
use crate::event::{Place, TransferDir};
use crate::executor::{ExecMode, Executor};
use crate::kernel::HostWork;
use crate::spec::DeviceId;
use crate::stream::StreamId;
use crate::time::DurationNs;
use crate::trace::{AccessKind, TensorId, TraceRecord};

/// Process-wide supply of [`DeviceTensor`] buffer identities, consumed
/// by the provenance trace. Clones share their origin's id (they alias
/// the same logical buffer); ids carry no meaning beyond uniqueness.
static NEXT_TENSOR_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_tensor_id() -> TensorId {
    NEXT_TENSOR_ID.fetch_add(1, Ordering::Relaxed)
}

/// A tensor tagged with its simulated residence and a logical-batch
/// scale factor.
///
/// `scale` is the ratio of logical rows to physically materialized rows
/// (1.0 for fully materialized tensors); all kernel pricing and
/// transfer byte counts derived from this tensor are multiplied by it.
#[derive(Debug, Clone)]
pub struct DeviceTensor {
    data: Tensor,
    place: Cell<Place>,
    scale: f64,
    /// Buffer identity for the provenance trace. Clones keep it: they
    /// alias the same logical buffer.
    id: TensorId,
}

impl PartialEq for DeviceTensor {
    /// Semantic equality: same values, residence and scale. Buffer
    /// identity is deliberately excluded — two independently built
    /// tensors with equal contents compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.place == other.place && self.scale == other.scale
    }
}

impl DeviceTensor {
    /// Wraps host-resident data (fully materialized, scale 1).
    pub fn host(data: Tensor) -> Self {
        DeviceTensor {
            data,
            place: Cell::new(Place::Cpu),
            scale: 1.0,
            id: fresh_tensor_id(),
        }
    }

    /// Wraps host-resident data standing in for `scale`× its physical
    /// row count (representative-batch pricing).
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not finite and positive.
    pub fn host_scaled(data: Tensor, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be finite and positive"
        );
        DeviceTensor {
            data,
            place: Cell::new(Place::Cpu),
            scale,
            id: fresh_tensor_id(),
        }
    }

    /// The functional values.
    pub fn data(&self) -> &Tensor {
        &self.data
    }

    /// Buffer identity in the provenance trace.
    pub fn trace_id(&self) -> TensorId {
        self.id
    }

    /// Current simulated residence.
    pub fn place(&self) -> Place {
        self.place.get()
    }

    /// Logical/physical batch ratio.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Bytes this tensor logically occupies (physical bytes × scale).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "rounded byte counts fit u64"
    )]
    pub fn logical_bytes(&self) -> u64 {
        (cost::f32_bytes(self.data.len()) as f64 * self.scale).round() as u64
    }
}

/// An input a dispatched op can consume: either a residence-tracked
/// [`DeviceTensor`] (activations) or a plain [`Tensor`] (weights, which
/// live on the compute device from `model_init` onward and never move).
pub trait Operand {
    /// The functional values.
    fn tensor(&self) -> &Tensor;

    /// Logical/physical batch ratio (1 for weights).
    fn scale(&self) -> f64 {
        1.0
    }

    /// Re-tags the operand as resident at `target`, returning the bytes
    /// that must cross PCIe, or `None` when already there (or when the
    /// operand's residence is not tracked).
    fn relocate(&self, target: Place) -> Option<u64>;

    /// Buffer identity for the provenance trace (`None` for weights and
    /// other untracked operands).
    fn operand_id(&self) -> Option<TensorId> {
        None
    }
}

impl Operand for Tensor {
    fn tensor(&self) -> &Tensor {
        self
    }

    fn relocate(&self, _target: Place) -> Option<u64> {
        None
    }
}

impl Operand for DeviceTensor {
    fn tensor(&self) -> &Tensor {
        &self.data
    }

    fn scale(&self) -> f64 {
        self.scale
    }

    fn relocate(&self, target: Place) -> Option<u64> {
        if self.place.get() == target {
            None
        } else {
            self.place.set(target);
            Some(self.logical_bytes())
        }
    }

    fn operand_id(&self) -> Option<TensorId> {
        Some(self.id)
    }
}

/// Result of one [`Dispatcher::fetch_rows`] call: how much of the
/// requested payload was served device-resident vs fetched over PCIe.
/// Rows are physical (representative) counts; bytes are logical
/// (scale-multiplied), matching what the timeline priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheFetch {
    /// Rows found resident (H2D skipped).
    pub hit_rows: u64,
    /// Rows fetched over PCIe (and inserted).
    pub miss_rows: u64,
    /// Logical bytes that skipped the crossing.
    pub hit_bytes: u64,
    /// Logical bytes priced as one H2D fetch.
    pub miss_bytes: u64,
}

impl CacheFetch {
    /// Hit fraction of this fetch (0 when no rows were requested).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_rows + self.miss_rows;
        if total == 0 {
            return 0.0;
        }
        self.hit_rows as f64 / total as f64
    }
}

/// Executes tensor math while charging the owning [`Executor`] for every
/// kernel and residence crossing. Create one per inference pass (or per
/// scope) with [`Dispatcher::new`].
///
/// The first op that consumes a host-resident tensor in GPU mode prices
/// its H2D upload automatically; the result is adopted device-resident,
/// so chained ops cross PCIe only once per buffer:
///
/// ```
/// use dgnn_device::{Dispatcher, DeviceTensor, ExecMode, Executor, PlatformSpec};
/// use dgnn_tensor::Tensor;
///
/// let mut ex = Executor::new(PlatformSpec::default(), ExecMode::Gpu);
/// let mut d = Dispatcher::new(&mut ex);
/// let a = DeviceTensor::host(Tensor::ones(&[4, 8]));
/// let b = DeviceTensor::host(Tensor::ones(&[8, 2]));
/// let y = d.matmul("proj", &a, &b)?;          // prices 2 uploads + 1 GEMM
/// let z = d.relu("act", &y);                  // y is already resident: no copy
/// assert_eq!(z.data().dims(), &[4, 2]);
/// assert_eq!(ex.timeline().transfer_count(None), 2);
/// # Ok::<(), dgnn_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct Dispatcher<'a> {
    ex: &'a mut Executor,
    coalesce: bool,
    /// Deferred transfer bytes, indexed `[H2D, D2H]`.
    pending: [u64; 2],
}

fn dir_index(dir: TransferDir) -> usize {
    match dir {
        TransferDir::H2D => 0,
        TransferDir::D2H => 1,
    }
}

impl<'a> Dispatcher<'a> {
    /// Wraps an executor. Transfers are priced immediately, one event per
    /// residence crossing (the profiled frameworks' behavior).
    pub fn new(ex: &'a mut Executor) -> Self {
        Dispatcher {
            ex,
            coalesce: false,
            pending: [0; 2],
        }
    }

    /// Wraps an executor with transfer coalescing on or off. With it on,
    /// residence crossings accumulate and [`Dispatcher::flush_transfers`]
    /// prices each direction as a single merged transaction.
    pub fn with_coalescing(ex: &'a mut Executor, coalesce: bool) -> Self {
        Dispatcher {
            ex,
            coalesce,
            pending: [0; 2],
        }
    }

    /// Bytes staged for the given direction but not yet priced.
    pub fn pending_transfer_bytes(&self, dir: TransferDir) -> u64 {
        self.pending[dir_index(dir)]
    }

    /// Prices a raw PCIe copy of `bytes` in direction `dir`, subject to
    /// coalescing, without touching residence state. Drivers that
    /// decompose a staged batch payload into its constituent per-tensor
    /// copies use this to price each piece.
    pub fn transfer(&mut self, dir: TransferDir, bytes: u64) {
        self.charge_transfer(dir, bytes, None);
    }

    /// Prices a residence crossing: immediately when coalescing is off,
    /// otherwise into the staging accumulator. `tensor` attributes the
    /// crossing in the provenance trace.
    fn charge_transfer(&mut self, dir: TransferDir, bytes: u64, tensor: Option<TensorId>) {
        let staged = self.coalesce && self.ex.mode() == ExecMode::Gpu;
        if self.ex.mode() == ExecMode::Gpu {
            self.ex.log(|lane, at_event| TraceRecord::Crossing {
                tensor,
                dir,
                bytes,
                lane,
                staged,
                at_event,
            });
        }
        if staged {
            self.pending[dir_index(dir)] += bytes;
        } else {
            self.ex.transfer(dir, bytes);
        }
    }

    /// Fetches `keys.len()` rows of `row_bytes` bytes each through the
    /// executor's device-resident feature cache: rows already resident
    /// skip their H2D crossing entirely, missing rows are priced as
    /// *one* merged fetch (which composes with coalescing — staged when
    /// coalescing is on, immediate otherwise) and inserted. Per-fetch
    /// pricing only; the functional tensors still flow through
    /// [`Dispatcher::adopt`], so numerics are identical either way.
    ///
    /// `keys` are physical (representative) row identities; `scale` is
    /// the logical/physical ratio applied to the priced byte counts,
    /// exactly like [`DeviceTensor::host_scaled`]. With the cache
    /// disabled every key misses, so the call prices the full payload —
    /// but as one merged transfer, which is why drivers route through
    /// it only when `feature_cache` is configured (keeping cache-off
    /// runs bit-identical to the historical per-piece pricing).
    ///
    /// In CPU-only mode no crossing exists and nothing is priced or
    /// cached, mirroring [`Dispatcher::ensure_resident`].
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not finite and positive.
    pub fn fetch_rows(
        &mut self,
        class: TensorClass,
        keys: &[u64],
        row_bytes: u64,
        scale: f64,
    ) -> CacheFetch {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be finite and positive"
        );
        if self.ex.mode() != ExecMode::Gpu {
            return CacheFetch::default();
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "rounded byte counts fit u64"
        )]
        #[allow(clippy::cast_sign_loss)] // row_bytes and scale are non-negative
        let scaled_row = (row_bytes as f64 * scale).round() as u64;
        let mut fetch = CacheFetch::default();
        for &key in keys {
            if self.ex.cache_probe_insert(class, key, scaled_row) {
                fetch.hit_rows += 1;
            } else {
                fetch.miss_rows += 1;
            }
        }
        fetch.hit_bytes = fetch.hit_rows * scaled_row;
        fetch.miss_bytes = fetch.miss_rows * scaled_row;
        if fetch.hit_rows > 0 {
            self.ex.log(|lane, at_event| TraceRecord::CacheHit {
                class,
                rows: fetch.hit_rows,
                bytes: fetch.hit_bytes,
                lane,
                at_event,
            });
        }
        if fetch.miss_bytes > 0 {
            self.charge_transfer(TransferDir::H2D, fetch.miss_bytes, None);
        }
        fetch
    }

    /// Prices all staged bytes as one merged transfer per direction
    /// (H2D first), returning the total simulated copy time. No-op when
    /// nothing is staged. Pipelined drivers call this on the copy lane at
    /// each batch boundary.
    pub fn flush_transfers(&mut self) -> DurationNs {
        let mut total = DurationNs::ZERO;
        for dir in [TransferDir::H2D, TransferDir::D2H] {
            let bytes = std::mem::take(&mut self.pending[dir_index(dir)]);
            if bytes > 0 {
                self.ex.log(|lane, at_event| TraceRecord::Flush {
                    dir,
                    bytes,
                    lane,
                    at_event,
                });
                total += self.ex.transfer(dir, bytes);
            }
        }
        total
    }

    /// The underlying executor (for warm-up, memory and timeline access).
    pub fn executor(&mut self) -> &mut Executor {
        self.ex
    }

    /// Where kernels execute in the current mode.
    pub fn compute_place(&self) -> Place {
        match self.ex.mode() {
            ExecMode::Gpu => Place::Gpu,
            ExecMode::CpuOnly => Place::Cpu,
        }
    }

    /// Moves an operand to the compute device, charging the PCIe copy if
    /// its residence actually crosses. No-op for weights and for
    /// already-resident tensors; never charges in CPU-only mode.
    ///
    /// While tracing is on, logs the crossing (if any) and the operand's
    /// consumption as a kernel argument on the current lane.
    pub fn ensure_resident(&mut self, op: &impl Operand) {
        let target = self.compute_place();
        if let Some(bytes) = op.relocate(target) {
            let dir = if target == Place::Gpu {
                TransferDir::H2D
            } else {
                TransferDir::D2H
            };
            self.charge_transfer(dir, bytes, op.operand_id());
        }
        if let Some(tensor) = op.operand_id() {
            self.ex.log(|lane, at_event| TraceRecord::Access {
                tensor,
                kind: AccessKind::Arg,
                lane,
                place: target,
                at_event,
            });
        }
    }

    /// Copies a tensor's logical bytes back to the host (the result
    /// read-back every inference pass ends with). No-op when already
    /// host-resident.
    pub fn download(&mut self, t: &DeviceTensor) {
        let device = self.compute_place();
        if let Some(bytes) = t.relocate(Place::Cpu) {
            self.ex.log(|lane, at_event| TraceRecord::Access {
                tensor: t.id,
                kind: AccessKind::Download,
                lane,
                place: device,
                at_event,
            });
            self.charge_transfer(TransferDir::D2H, bytes, Some(t.id));
        }
    }

    /// Tags freshly computed data as resident on the compute device.
    pub fn adopt(&mut self, data: Tensor, scale: f64) -> DeviceTensor {
        let t = DeviceTensor {
            data,
            place: Cell::new(self.compute_place()),
            scale,
            id: fresh_tensor_id(),
        };
        self.ex.log(|lane, at_event| TraceRecord::Access {
            tensor: t.id,
            kind: AccessKind::Adopt,
            lane,
            place: t.place.get(),
            at_event,
        });
        t
    }

    /// Releases a device-resident tensor: frees its logical bytes from
    /// the compute device's memory tracker and logs the release in the
    /// provenance trace. Any later device-side use of the tensor without
    /// a fresh upload is a use-after-release hazard.
    pub fn release_tensor(&mut self, t: &DeviceTensor) {
        self.ex.log(|lane, at_event| TraceRecord::Release {
            tensor: t.id,
            lane,
            at_event,
        });
        self.ex.release(t.logical_bytes());
    }

    /// Charges `desc × scale` as one kernel launch without running any
    /// functional math — the low-level primitive for call sites whose
    /// computation spans several kernels (e.g. the per-head attention
    /// loop, which charges scores/softmax/context separately but computes
    /// them in one pass). Prefer the typed ops or [`Dispatcher::fused`].
    pub fn charge(&mut self, desc: OpDescriptor, scale: f64) -> DurationNs {
        self.ex.launch(desc.scaled(scale))
    }

    /// Runs `f` inside a named profiler scope on the owning executor.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let token = self.ex.enter_scope(name);
        let result = f(self);
        self.ex.exit_scope(token);
        result
    }

    /// Executes host-side preprocessing work (always on the CPU).
    pub fn host(&mut self, work: HostWork) -> DurationNs {
        self.ex.host(work)
    }

    /// Launches a synchronization marker.
    pub fn synchronize(&mut self) -> DurationNs {
        self.ex.synchronize()
    }

    /// Runs `f` with every priced action (kernels, host work, transfer
    /// flushes) placed on `lane`.
    pub fn on_stream<R>(&mut self, lane: StreamId, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.ex.swap_current_stream(Some(lane));
        let result = f(self);
        self.ex.swap_current_stream(prev);
        result
    }

    /// Runs `f` with every priced action targeting `device` (see
    /// [`Executor::on_device`]). Pending coalesced bytes are flushed
    /// first so staged transfers are priced on the device that staged
    /// them, not wherever the dispatcher wanders next.
    pub fn on_device<R>(&mut self, device: DeviceId, f: impl FnOnce(&mut Self) -> R) -> R {
        self.flush_transfers();
        let prev = self.ex.swap_current_device(device);
        let result = f(self);
        self.flush_transfers();
        self.ex.swap_current_device(prev);
        result
    }

    /// Fetches `bytes` owned by device `src` onto the current device,
    /// logging the crossing intent and pricing it on the platform's
    /// interconnect (see [`Executor::peer_transfer`]). Returns the
    /// modeled wall time; free when `src` is the current device.
    pub fn peer_transfer(&mut self, src: DeviceId, bytes: u64) -> DurationNs {
        let dst = self.ex.current_device();
        if self.ex.mode() == ExecMode::Gpu && bytes > 0 && src != dst {
            self.ex.log(|lane, at_event| TraceRecord::PeerCrossing {
                src,
                dst,
                bytes,
                lane,
                at_event,
            });
        }
        self.ex.peer_transfer(src, bytes)
    }

    /// Escape hatch for fused kernels (gate updates, time encodings,
    /// per-head attention cores): stages nothing, charges `desc × scale`
    /// as one launch, and returns the closure's functional result.
    /// Callers stage inputs with [`Dispatcher::ensure_resident`] first.
    pub fn fused<R>(
        &mut self,
        desc: OpDescriptor,
        scale: f64,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        let result = f()?;
        self.charge(desc, scale);
        Ok(result)
    }

    /// Dense `a[m, k] × b[k, n]`, priced as a GEMM over those shapes.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the functional matmul.
    pub fn matmul(
        &mut self,
        label: &'static str,
        a: &DeviceTensor,
        b: &impl Operand,
    ) -> Result<DeviceTensor> {
        self.ensure_resident(a);
        self.ensure_resident(b);
        let out = a.data.matmul(b.tensor())?;
        let (m, k) = (a.data.dims()[0], a.data.dims()[1]);
        let n = b.tensor().dims()[1];
        self.charge(OpDescriptor::gemm(label, m, k, n), a.scale);
        Ok(self.adopt(out, a.scale))
    }

    /// Row-broadcast bias add over `x[m, n]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the functional broadcast.
    pub fn add_bias(
        &mut self,
        label: &'static str,
        x: &DeviceTensor,
        bias: &impl Operand,
    ) -> Result<DeviceTensor> {
        self.ensure_resident(x);
        self.ensure_resident(bias);
        let out = x.data.add_row_broadcast(bias.tensor())?;
        let (m, n) = (x.data.dims()[0], x.data.dims()[1]);
        self.charge(OpDescriptor::elementwise(label, m * n, 1, 2), x.scale);
        Ok(self.adopt(out, x.scale))
    }

    /// Element-wise binary op priced as one pass over both inputs.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the functional op.
    pub fn binary(
        &mut self,
        label: &'static str,
        a: &DeviceTensor,
        b: &impl Operand,
        f: impl Fn(&Tensor, &Tensor) -> Result<Tensor>,
    ) -> Result<DeviceTensor> {
        self.ensure_resident(a);
        self.ensure_resident(b);
        let out = f(&a.data, b.tensor())?;
        self.charge(
            OpDescriptor::elementwise(label, a.data.len(), 1, 2),
            a.scale,
        );
        Ok(self.adopt(out, a.scale))
    }

    /// ReLU over every element.
    pub fn relu(&mut self, label: &'static str, x: &DeviceTensor) -> DeviceTensor {
        self.ensure_resident(x);
        let out = x.data.relu();
        self.charge(
            OpDescriptor::elementwise(label, x.data.len(), 1, 1),
            x.scale,
        );
        self.adopt(out, x.scale)
    }

    /// A transcendental activation (sigmoid/tanh/softplus) over every
    /// element.
    pub fn activation(
        &mut self,
        label: &'static str,
        x: &DeviceTensor,
        f: impl Fn(&Tensor) -> Tensor,
    ) -> DeviceTensor {
        self.ensure_resident(x);
        let out = f(&x.data);
        self.charge(
            OpDescriptor::elementwise(label, x.data.len(), 4, 1),
            x.scale,
        );
        self.adopt(out, x.scale)
    }

    /// Row-wise softmax over `x[m, n]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the functional softmax.
    pub fn softmax_rows(&mut self, label: &'static str, x: &DeviceTensor) -> Result<DeviceTensor> {
        self.ensure_resident(x);
        let out = x.data.softmax_rows()?;
        let (m, n) = (x.data.dims()[0], x.data.dims()[1]);
        self.charge(OpDescriptor::reduce(label, m, n), x.scale);
        Ok(self.adopt(out, x.scale))
    }

    /// Row reduction (sum or mean) over `x[m, n] → [n]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the functional reduction.
    pub fn reduce_rows(
        &mut self,
        label: &'static str,
        x: &DeviceTensor,
        f: impl Fn(&Tensor) -> Result<Tensor>,
    ) -> Result<DeviceTensor> {
        self.ensure_resident(x);
        let out = f(&x.data)?;
        let (m, n) = (x.data.dims()[0], x.data.dims()[1]);
        self.charge(OpDescriptor::reduce(label, m, n), x.scale);
        Ok(self.adopt(out, x.scale))
    }

    /// Gathers `indices` rows from a table (embedding lookup / neighbor
    /// feature fetch). `scale` multiplies the priced row count for
    /// representative batches.
    ///
    /// # Errors
    ///
    /// Returns index errors from the functional gather.
    pub fn gather_rows(
        &mut self,
        label: &'static str,
        table: &impl Operand,
        indices: &[usize],
        scale: f64,
    ) -> Result<DeviceTensor> {
        self.ensure_resident(table);
        let out = table.tensor().gather_rows(indices)?;
        let width = table.tensor().dims()[1];
        self.charge(OpDescriptor::gather(label, indices.len(), width), scale);
        Ok(self.adopt(out, scale))
    }

    /// Scatters `rows` into `table` in place at `indices`
    /// (embedding/memory update), priced as a gather-family kernel over
    /// the written rows. Every index is checked before the first write,
    /// so on error `table` is unchanged and no kernel is charged.
    ///
    /// # Errors
    ///
    /// Returns shape/index errors from the functional scatter.
    pub fn scatter_rows(
        &mut self,
        label: &'static str,
        table: &mut Tensor,
        indices: &[usize],
        rows: &DeviceTensor,
    ) -> Result<()> {
        self.ensure_resident(rows);
        table.scatter_rows(indices, rows.tensor())?;
        let width = table.dims()[1];
        self.charge(
            OpDescriptor::gather(label, indices.len(), width),
            rows.scale,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventCategory;
    use crate::spec::PlatformSpec;
    use dgnn_tensor::OpKind;

    fn gpu() -> Executor {
        Executor::new(PlatformSpec::default(), ExecMode::Gpu)
    }

    fn cpu() -> Executor {
        Executor::new(PlatformSpec::default(), ExecMode::CpuOnly)
    }

    #[test]
    fn matmul_computes_and_charges_one_gemm() {
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let a = DeviceTensor::host(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let b = Tensor::eye(2);
        let y = dx.matmul("mm", &a, &b).unwrap();
        assert_eq!(y.data(), a.data());
        let events = ex.timeline().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label, "mm");
        assert_eq!(events[0].category, EventCategory::Kernel(OpKind::Gemm));
        assert_eq!(events[0].flops, cost::matmul_flops(2, 2, 2));
    }

    #[test]
    fn dispatcher_price_matches_manual_launch() {
        // The same schedule dispatched vs hand-launched lands on the same
        // clock: the dispatcher cannot drift from the legacy pricing.
        let mut manual = gpu();
        manual.launch(OpDescriptor::gemm("mm", 8, 16, 4));
        manual.launch(OpDescriptor::elementwise("bias", 8 * 4, 1, 2));

        let mut ex = gpu();
        {
            let mut dx = Dispatcher::new(&mut ex);
            let x = dx.adopt(Tensor::ones(&[8, 16]), 1.0);
            let w = Tensor::ones(&[16, 4]);
            let bias = Tensor::zeros(&[4]);
            let y = dx.matmul("mm", &x, &w).unwrap();
            dx.add_bias("bias", &y, &bias).unwrap();
        }
        assert_eq!(ex.now(), manual.now());
    }

    #[test]
    fn host_tensor_pays_h2d_once_then_stays_resident() {
        let mut ex = gpu();
        let mut dx = Dispatcher::new(&mut ex);
        let x = DeviceTensor::host(Tensor::ones(&[4, 4]));
        let w = Tensor::eye(4);
        dx.matmul("mm1", &x, &w).unwrap();
        dx.matmul("mm2", &x, &w).unwrap();
        assert_eq!(x.place(), Place::Gpu);
        let transfers: Vec<_> = ex
            .timeline()
            .events()
            .iter()
            .filter(|e| matches!(e.category, EventCategory::Transfer(_)))
            .collect();
        assert_eq!(transfers.len(), 1, "one crossing, one copy");
        assert_eq!(transfers[0].label, "memcpy_h2d");
        assert_eq!(transfers[0].bytes, 4 * 4 * 4);
    }

    #[test]
    fn cpu_only_mode_never_transfers() {
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let x = DeviceTensor::host(Tensor::ones(&[8, 8]));
        let y = dx.matmul("mm", &x, &Tensor::eye(8)).unwrap();
        dx.download(&y);
        assert_eq!(ex.timeline().busy_time(Place::Pcie), DurationNs::ZERO);
        assert!(ex
            .timeline()
            .events()
            .iter()
            .all(|e| !matches!(e.category, EventCategory::Transfer(_))));
    }

    #[test]
    fn download_charges_d2h_and_flips_residence() {
        let mut ex = gpu();
        let mut dx = Dispatcher::new(&mut ex);
        let x = DeviceTensor::host(Tensor::ones(&[2, 2]));
        let y = dx.relu("r", &x);
        assert_eq!(y.place(), Place::Gpu);
        dx.download(&y);
        assert_eq!(y.place(), Place::Cpu);
        {
            let last = dx.executor().timeline().events().last().unwrap();
            assert_eq!(last.label, "memcpy_d2h");
            assert_eq!(last.bytes, y.logical_bytes());
        }
        // Downloading again is free: residence already matches.
        let before = dx.executor().timeline().len();
        dx.download(&y);
        assert_eq!(ex.timeline().len(), before);
    }

    #[test]
    fn scale_multiplies_priced_work_and_transfer_bytes() {
        let mut ex = gpu();
        let mut dx = Dispatcher::new(&mut ex);
        let rep = DeviceTensor::host_scaled(Tensor::ones(&[4, 8]), 16.0);
        dx.matmul("mm", &rep, &Tensor::eye(8)).unwrap();
        let h2d = ex
            .timeline()
            .events()
            .iter()
            .find(|e| e.label == "memcpy_h2d")
            .unwrap();
        assert_eq!(h2d.bytes, 16 * 4 * 8 * 4, "16× the physical bytes");
        let mm = ex
            .timeline()
            .events()
            .iter()
            .find(|e| e.label == "mm")
            .unwrap();
        assert_eq!(mm.flops, 16 * cost::matmul_flops(4, 8, 8));
    }

    #[test]
    fn scaled_rep_batch_prices_like_full_batch() {
        // A 128-row batch computed on 8 representative rows at scale 16
        // costs exactly what the materialized 128-row batch costs.
        let mut full = gpu();
        {
            let mut dx = Dispatcher::new(&mut full);
            let x = dx.adopt(Tensor::ones(&[128, 8]), 1.0);
            dx.matmul("mm", &x, &Tensor::ones(&[8, 8])).unwrap();
        }
        let mut rep = gpu();
        {
            let mut dx = Dispatcher::new(&mut rep);
            let x = dx.adopt(Tensor::ones(&[8, 8]), 16.0);
            dx.matmul("mm", &x, &Tensor::ones(&[8, 8])).unwrap();
        }
        assert_eq!(full.now(), rep.now());
    }

    #[test]
    fn weights_never_transfer() {
        let mut ex = gpu();
        let mut dx = Dispatcher::new(&mut ex);
        let x = dx.adopt(Tensor::ones(&[4, 4]), 1.0);
        let w = Tensor::eye(4);
        dx.matmul("mm", &x, &w).unwrap();
        assert!(ex
            .timeline()
            .events()
            .iter()
            .all(|e| !matches!(e.category, EventCategory::Transfer(_))));
    }

    #[test]
    fn gather_and_scatter_price_irregular_kernels() {
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let table = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]).unwrap();
        let rows = dx.gather_rows("lookup", &table, &[1, 3], 1.0).unwrap();
        assert_eq!(rows.data().dims(), &[2, 3]);
        let mut updated = table.clone();
        dx.scatter_rows("update", &mut updated, &[0, 2], &rows)
            .unwrap();
        assert_eq!(updated.row(0).unwrap(), table.row(1).unwrap());
        let kinds: Vec<_> = ex.timeline().events().iter().map(|e| e.category).collect();
        assert_eq!(
            kinds,
            vec![
                EventCategory::Kernel(OpKind::Gather),
                EventCategory::Kernel(OpKind::Gather),
            ]
        );
    }

    #[test]
    fn fused_charges_exactly_the_given_descriptor() {
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let out: Tensor = dx
            .fused(
                OpDescriptor::elementwise("gru_update", 64, 6, 3),
                1.0,
                || Ok(Tensor::zeros(&[64])),
            )
            .unwrap();
        assert_eq!(out.len(), 64);
        let e = ex.timeline().events().last().unwrap();
        assert_eq!(e.label, "gru_update");
        assert_eq!(e.flops, cost::elementwise_flops(64, 6));
    }

    #[test]
    fn scopes_wrap_dispatched_events() {
        let mut ex = gpu();
        {
            let mut dx = Dispatcher::new(&mut ex);
            let x = dx.adopt(Tensor::ones(&[4, 4]), 1.0);
            dx.scope("gnn", |dx| {
                dx.scope("layer0", |dx| dx.matmul("mm", &x, &Tensor::eye(4)))
            })
            .unwrap();
        }
        let e = ex.timeline().events().last().unwrap();
        assert_eq!(&*e.scope, "gnn/layer0");
        let paths: Vec<&str> = ex.scopes().iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"gnn") && paths.contains(&"gnn/layer0"));
    }

    #[test]
    fn softmax_and_reduce_price_reduce_kernels() {
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let x = dx.adopt(Tensor::ones(&[3, 5]), 1.0);
        let p = dx.softmax_rows("sm", &x).unwrap();
        assert!((p.data().at(&[0, 0]).unwrap() - 0.2).abs() < 1e-6);
        dx.reduce_rows("agg", &x, Tensor::mean_rows).unwrap();
        assert!(ex
            .timeline()
            .events()
            .iter()
            .all(|e| e.category == EventCategory::Kernel(OpKind::Reduce)));
    }

    #[test]
    fn coalescing_merges_transfers_and_conserves_bytes() {
        // Four host tensors consumed by kernels: uncoalesced that is four
        // H2D events; coalesced it is one event with the summed bytes.
        let run = |coalesce: bool| {
            let mut ex = gpu();
            {
                let mut dx = Dispatcher::with_coalescing(&mut ex, coalesce);
                let w = Tensor::eye(8);
                for _ in 0..4 {
                    let x = DeviceTensor::host(Tensor::ones(&[8, 8]));
                    dx.matmul("mm", &x, &w).unwrap();
                }
                dx.flush_transfers();
            }
            ex
        };
        let plain = run(false);
        let merged = run(true);
        assert_eq!(plain.timeline().transfer_count(None), 4);
        assert_eq!(merged.timeline().transfer_count(None), 1);
        assert_eq!(
            plain.timeline().transfer_bytes(None),
            merged.timeline().transfer_bytes(None),
            "coalescing must conserve total transferred bytes"
        );
        // One latency instead of four: the merged schedule is faster.
        assert!(merged.now() < plain.now());
    }

    #[test]
    fn flush_prices_each_direction_separately() {
        let mut ex = gpu();
        let mut dx = Dispatcher::with_coalescing(&mut ex, true);
        let x = DeviceTensor::host(Tensor::ones(&[4, 4]));
        let y = dx.relu("r", &x);
        dx.download(&y);
        assert_eq!(dx.pending_transfer_bytes(TransferDir::H2D), 64);
        assert_eq!(dx.pending_transfer_bytes(TransferDir::D2H), 64);
        let d = dx.flush_transfers();
        assert!(d.as_nanos() > 0);
        assert_eq!(dx.pending_transfer_bytes(TransferDir::H2D), 0);
        assert_eq!(dx.pending_transfer_bytes(TransferDir::D2H), 0);
        // A second flush with nothing staged is free.
        assert_eq!(dx.flush_transfers(), DurationNs::ZERO);
        assert_eq!(ex.timeline().transfer_count(Some(TransferDir::H2D)), 1);
        assert_eq!(ex.timeline().transfer_count(Some(TransferDir::D2H)), 1);
    }

    #[test]
    fn pageable_tax_is_paid_once_per_coalesced_flush() {
        // Property: under `TransferMode::Pageable` the fixed per-transfer
        // tax (PCIe latency + host metadata) is charged once per *flushed*
        // merged transfer, never once per staged piece — so coalescing's
        // advantage over eager pageable copies is exactly the (n-1) taxes
        // it avoids, across any piece count and size mix. Swept over a
        // deterministic pseudo-random workload in lieu of a quickcheck
        // dependency.
        use crate::spec::TransferMode;
        let spec = PlatformSpec::default().pcie;
        let tax = DurationNs::from_nanos(spec.latency_ns + spec.host_meta_ns);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_bytes = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % 8_192 + 1
        };
        let run = |coalesce: bool, pieces: &[u64]| -> (DurationNs, usize) {
            let mut ex = gpu();
            ex.set_transfer_mode(TransferMode::Pageable);
            ex.ensure_context();
            let t0 = ex.now();
            let mut dx = Dispatcher::with_coalescing(&mut ex, coalesce);
            for &b in pieces {
                dx.transfer(TransferDir::H2D, b);
            }
            dx.flush_transfers();
            let n = ex.timeline().transfer_count(Some(TransferDir::H2D));
            (ex.now() - t0, n)
        };
        for n_pieces in [1usize, 2, 3, 5, 8, 13, 16] {
            let pieces: Vec<u64> = (0..n_pieces).map(|_| next_bytes()).collect();
            let total: u64 = pieces.iter().sum();
            let (merged_time, merged_n) = run(true, &pieces);
            let (eager_time, eager_n) = run(false, &pieces);
            assert_eq!(merged_n, 1, "coalescing must flush one merged copy");
            assert_eq!(eager_n, n_pieces, "eager mode prices every piece");
            // The merged flush is priced exactly like a single pageable
            // transfer of the summed payload: one tax, summed bandwidth.
            let expected = tax
                + DurationNs::from_secs_f64(
                    total as f64 / spec.staging_bandwidth + total as f64 / spec.pageable_bandwidth,
                );
            assert_eq!(merged_time, expected, "n_pieces={n_pieces}");
            // Eager pays the same bandwidth terms but one tax per piece;
            // the gap is (n-1) taxes up to per-piece rounding (< 1 ns each).
            let gap = eager_time.saturating_sub(merged_time).as_nanos();
            let want = tax.as_nanos() * (n_pieces as u64 - 1);
            assert!(
                gap.abs_diff(want) <= n_pieces as u64,
                "n_pieces={n_pieces}: gap {gap} vs (n-1) taxes {want}"
            );
        }
    }

    #[test]
    fn coalescing_is_inert_in_cpu_only_mode() {
        let mut ex = cpu();
        let mut dx = Dispatcher::with_coalescing(&mut ex, true);
        let x = DeviceTensor::host(Tensor::ones(&[8, 8]));
        dx.matmul("mm", &x, &Tensor::eye(8)).unwrap();
        assert_eq!(dx.pending_transfer_bytes(TransferDir::H2D), 0);
        assert_eq!(dx.flush_transfers(), DurationNs::ZERO);
        assert_eq!(ex.timeline().transfer_count(None), 0);
    }

    #[test]
    fn fetch_rows_prices_misses_once_and_skips_hits() {
        let mut ex = gpu();
        ex.ensure_context();
        ex.enable_feature_cache(16);
        let mut dx = Dispatcher::new(&mut ex);
        let keys: Vec<u64> = (0..8).collect();
        let cold = dx.fetch_rows(TensorClass::NodeFeature, &keys, 128, 1.0);
        assert_eq!((cold.hit_rows, cold.miss_rows), (0, 8));
        assert_eq!(cold.miss_bytes, 8 * 128);
        let warm = dx.fetch_rows(TensorClass::NodeFeature, &keys, 128, 1.0);
        assert_eq!((warm.hit_rows, warm.miss_rows), (8, 0));
        assert_eq!(warm.hit_bytes, 8 * 128);
        assert!((warm.hit_rate() - 1.0).abs() < 1e-12);
        // One priced transfer (the cold fetch); the warm fetch priced none.
        assert_eq!(ex.timeline().transfer_count(Some(TransferDir::H2D)), 1);
        assert_eq!(
            ex.timeline().transfer_bytes(Some(TransferDir::H2D)),
            8 * 128
        );
    }

    #[test]
    fn fetch_rows_scale_multiplies_priced_bytes() {
        let mut ex = gpu();
        ex.ensure_context();
        ex.enable_feature_cache(4);
        let mut dx = Dispatcher::new(&mut ex);
        let f = dx.fetch_rows(TensorClass::EdgeFeature, &[1, 2], 100, 16.0);
        assert_eq!(f.miss_bytes, 2 * 1600);
        assert_eq!(ex.timeline().transfer_bytes(Some(TransferDir::H2D)), 3200);
    }

    #[test]
    fn fetch_rows_composes_with_coalescing() {
        let mut ex = gpu();
        ex.ensure_context();
        ex.enable_feature_cache(16);
        let mut dx = Dispatcher::with_coalescing(&mut ex, true);
        dx.fetch_rows(TensorClass::NodeFeature, &[1, 2, 3], 64, 1.0);
        assert_eq!(dx.pending_transfer_bytes(TransferDir::H2D), 3 * 64);
        dx.flush_transfers();
        assert_eq!(ex.timeline().transfer_count(Some(TransferDir::H2D)), 1);
    }

    #[test]
    fn fetch_rows_without_cache_misses_everything() {
        let mut ex = gpu();
        ex.ensure_context();
        let mut dx = Dispatcher::new(&mut ex);
        let a = dx.fetch_rows(TensorClass::NodeFeature, &[7], 64, 1.0);
        let b = dx.fetch_rows(TensorClass::NodeFeature, &[7], 64, 1.0);
        assert_eq!(a.miss_rows, 1);
        assert_eq!(b.miss_rows, 1, "no cache: repeats still pay");
        assert_eq!(ex.timeline().transfer_count(Some(TransferDir::H2D)), 2);
    }

    #[test]
    fn fetch_rows_is_inert_in_cpu_only_mode() {
        let mut ex = cpu();
        ex.enable_feature_cache(16);
        let mut dx = Dispatcher::new(&mut ex);
        let f = dx.fetch_rows(TensorClass::NodeFeature, &[1, 2], 64, 1.0);
        assert_eq!(f, CacheFetch::default());
        assert_eq!(ex.timeline().transfer_count(None), 0);
        assert_eq!(ex.cache_stats().lookups(), 0);
    }

    #[test]
    fn fetch_rows_hits_are_traced() {
        use crate::trace::TraceRecord;
        let mut ex = gpu();
        ex.ensure_context();
        ex.enable_tracing();
        ex.enable_feature_cache(8);
        let mut dx = Dispatcher::new(&mut ex);
        dx.fetch_rows(TensorClass::NodeMemory, &[1, 2], 32, 1.0);
        dx.fetch_rows(TensorClass::NodeMemory, &[1, 2, 3], 32, 1.0);
        let records = ex.trace().unwrap().records();
        // One aggregated record for the two warm rows, not one per row.
        let hits: Vec<_> = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::CacheHit { .. }))
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(matches!(
            hits[0],
            TraceRecord::CacheHit {
                class: TensorClass::NodeMemory,
                rows: 2,
                bytes: 64,
                ..
            }
        ));
    }

    #[test]
    fn tracing_attributes_crossings_and_kernel_args_to_tensors() {
        use crate::trace::{AccessKind, TraceRecord};
        let mut ex = gpu();
        ex.enable_tracing();
        let mut dx = Dispatcher::new(&mut ex);
        let x = DeviceTensor::host(Tensor::ones(&[4, 4]));
        let id = x.trace_id();
        let y = dx.matmul("mm", &x, &Tensor::eye(4)).unwrap();
        dx.download(&y);
        let records = ex.trace().unwrap().records().to_vec();
        // The upload crossing carries the operand's buffer identity…
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::Crossing {
                tensor: Some(t),
                dir: TransferDir::H2D,
                staged: false,
                ..
            } if *t == id
        )));
        // …the kernel argument access follows it…
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::Access {
                tensor: t,
                kind: AccessKind::Arg,
                place: Place::Gpu,
                ..
            } if *t == id
        )));
        // …and the result's read-back is a Download access plus a D2H
        // crossing attributed to the result tensor.
        let yid = y.trace_id();
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::Access {
                tensor: t,
                kind: AccessKind::Download,
                ..
            } if *t == yid
        )));
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::Crossing {
                tensor: Some(t),
                dir: TransferDir::D2H,
                ..
            } if *t == yid
        )));
    }

    #[test]
    fn tracing_marks_staged_crossings_and_flushes() {
        use crate::trace::TraceRecord;
        let mut ex = gpu();
        ex.enable_tracing();
        let mut dx = Dispatcher::with_coalescing(&mut ex, true);
        for _ in 0..3 {
            let x = DeviceTensor::host(Tensor::ones(&[4, 4]));
            dx.matmul("mm", &x, &Tensor::eye(4)).unwrap();
        }
        dx.flush_transfers();
        let records = ex.trace().unwrap().records();
        let staged: u64 = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Crossing {
                    bytes,
                    staged: true,
                    ..
                } => Some(*bytes),
                _ => None,
            })
            .sum();
        let flushed: u64 = records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Flush { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(staged, 3 * 64);
        assert_eq!(flushed, staged, "flush must conserve staged bytes");
    }

    #[test]
    fn release_tensor_frees_memory_and_logs() {
        use crate::trace::TraceRecord;
        let mut ex = gpu();
        ex.enable_tracing();
        let mut dx = Dispatcher::new(&mut ex);
        let x = dx.adopt(Tensor::ones(&[8, 8]), 1.0);
        let id = x.trace_id();
        dx.executor().gpu_memory();
        dx.release_tensor(&x);
        assert!(ex.trace().unwrap().records().iter().any(|r| matches!(
            r,
            TraceRecord::Release { tensor, .. } if *tensor == id
        )));
    }

    #[test]
    fn dispatcher_lane_placement_matches_executor() {
        let mut ex = gpu();
        ex.ensure_context();
        ex.fork_streams(1);
        {
            let mut dx = Dispatcher::new(&mut ex);
            let x = dx.adopt(Tensor::ones(&[8, 8]), 1.0);
            dx.on_stream(StreamId::Compute, |dx| {
                dx.matmul("mm", &x, &Tensor::eye(8)).unwrap();
            });
        }
        ex.join_streams();
        let e = ex
            .timeline()
            .events()
            .iter()
            .find(|e| e.label == "mm")
            .unwrap();
        assert_eq!(e.stream, Some(StreamId::Compute));
    }

    #[test]
    fn peer_transfer_logs_a_crossing_and_its_pricing_twin() {
        use crate::trace::TraceRecord;
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.enable_tracing();
        ex.ensure_context();
        let mut dx = Dispatcher::new(&mut ex);
        let d = dx.on_device(1, |dx| dx.peer_transfer(0, 1 << 20));
        assert!(d > DurationNs::ZERO);
        let trace = ex.trace().unwrap();
        assert!(trace.records().iter().any(|r| matches!(
            r,
            TraceRecord::PeerCrossing { src: 0, dst: 1, bytes, .. } if *bytes == 1 << 20
        )));
        assert!(trace.records().iter().any(|r| matches!(
            r,
            TraceRecord::PeerPriced {
                src: 0,
                dst: 1,
                bytes,
                via_host: false,
                ..
            } if *bytes == 1 << 20
        )));
    }

    #[test]
    fn same_device_peer_fetches_log_nothing() {
        use crate::trace::TraceRecord;
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.enable_tracing();
        ex.ensure_context();
        let mut dx = Dispatcher::new(&mut ex);
        assert_eq!(dx.peer_transfer(0, 1 << 20), DurationNs::ZERO);
        assert!(!ex.trace().unwrap().records().iter().any(|r| matches!(
            r,
            TraceRecord::PeerCrossing { .. } | TraceRecord::PeerPriced { .. }
        )));
    }

    #[test]
    fn on_device_places_dispatched_work_on_that_device() {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.ensure_context();
        let mut dx = Dispatcher::new(&mut ex);
        let x = dx.adopt(Tensor::ones(&[8, 8]), 1.0);
        dx.on_device(1, |dx| {
            dx.matmul("mm_dev1", &x, &Tensor::eye(8)).unwrap();
        });
        assert_eq!(dx.executor().current_device(), 0);
        let e = ex
            .timeline()
            .events()
            .iter()
            .find(|e| e.label == "mm_dev1")
            .unwrap();
        assert_eq!(e.device, 1);
    }

    #[test]
    fn on_device_flushes_staged_bytes_before_switching() {
        let mut ex = Executor::new(PlatformSpec::multi_gpu_nvlink(2), ExecMode::Gpu);
        ex.ensure_context();
        let mut dx = Dispatcher::with_coalescing(&mut ex, true);
        let x = DeviceTensor::host(Tensor::ones(&[8, 8]));
        dx.on_device(1, |dx| {
            dx.matmul("mm", &x, &Tensor::eye(8)).unwrap();
        });
        // The staged H2D crossing was flushed inside the device-1 scope.
        let t = ex
            .timeline()
            .events()
            .iter()
            .find(|e| matches!(e.category, EventCategory::Transfer(_)))
            .expect("staged copy must be priced");
        assert_eq!(t.device, 1);
    }

    #[test]
    fn activation_and_binary_price_elementwise() {
        let mut ex = cpu();
        let mut dx = Dispatcher::new(&mut ex);
        let x = dx.adopt(Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap(), 1.0);
        let s = dx.activation("sig", &x, Tensor::sigmoid);
        assert!(s.data().as_slice()[0] < 0.5 && s.data().as_slice()[1] > 0.5);
        let sum = dx.binary("add", &x, s.data(), Tensor::add).unwrap();
        assert_eq!(sum.data().len(), 2);
        assert!(ex
            .timeline()
            .events()
            .iter()
            .all(|e| e.category == EventCategory::Kernel(OpKind::Elementwise)));
    }
}
