package optics

import "goopc/internal/obs"

// Registry series for the imaging engines. The per-Simulator statistics
// (KernelCacheStats, FieldEvals) remain per-object — tests and
// benchmarks reset them per simulator — and mirror into these flow-wide
// series, so the /metrics view aggregates every simulator in the
// process while the old accessors keep their exact semantics.
var (
	mKernelHits = obs.Default().Counter("goopc_kernel_cache_hits_total",
		"SOCS kernel cache hits (kernel set reused for a frame/defocus)")
	mKernelMisses = obs.Default().Counter("goopc_kernel_cache_misses_total",
		"SOCS kernel cache misses (kernel set built)")
	mKernelEvictions = obs.Default().Counter("goopc_kernel_cache_evictions_total",
		"SOCS kernel cache entries dropped by ResetKernelCache")
	mKernelBuilds = obs.Default().Counter("goopc_kernel_builds_total",
		"SOCS kernel set constructions (TCC eigendecompositions)")
	mKernelsKept = obs.Default().Histogram("goopc_socs_kernels_kept",
		"retained kernel count per SOCS decomposition",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	mPlanReuse = obs.Default().Counter("goopc_sim_plan_reuse_total",
		"FFT plan cache hits on the simulator's per-geometry plan cache")
	mPlanBuilds = obs.Default().Counter("goopc_sim_plan_builds_total",
		"FFT plan cache misses (new plan constructed)")
	mFieldEvals = obs.Default().Counter("goopc_abbe_field_evals_total",
		"Abbe source-point field evaluations")
	mImagesSOCS = obs.Default().Counter("goopc_images_socs_total",
		"aerial images computed by the SOCS engine")
	mImagesAbbe = obs.Default().Counter("goopc_images_abbe_total",
		"aerial images computed by the Abbe reference engine")
	mFramePixels = obs.Default().Histogram("goopc_frame_pixels",
		"simulation frame size (W*H) per aerial image",
		[]float64{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22})
)
