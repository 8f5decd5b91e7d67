"""Phase-corrected joint low-rank and group-sparse reconstruction for
accelerated cardiac diffusion tensor imaging, with a synthetic
left-ventricle phantom bench for end-to-end verification."""

from .datamodel import (CasoratiSeries, CoilMaps, ColumnLabel, PhaseMap,
                        SamplingMask, make_labels, read_container,
                        reshape_to_casorati, write_container)
from .encoding import (EncodingModel, KSpaceData, estimate_coil_maps,
                       make_sampling_mask)
from .errors import NumericalError, ValidationError
from .phantom import GroundTruth, PhantomConfig, add_noise, build_phantom
from .recon import (Method, PhaseMode, ReconResult, SolverConfig,
                    estimate_phase_map, estimate_subspace, reconstruct_cs_only,
                    reconstruct_lrcs, select_lambda)
from .transforms import WaveletSpec, group_shrink

__version__ = "0.1.0"
