"""Single-chip FMCW radar place recognition pipeline.

Simulation of IF sample cubes, range-azimuth heatmap generation, rotation
cycle mosaicking, a triplet-trained convolutional place encoder, and exact
retrieval with recall@N / maxF1 evaluation.
"""

from .radar import (
    IFCube,
    PlatformConfig,
    RadarConfig,
    Scatterer,
    simulate_if_cube,
    simulate_platform_sweep,
)
from .heatmap import (
    Heatmap,
    angle_from_phase,
    generate_heatmap,
    range_from_frequency,
)
from .concat import (
    CycleSegment,
    PoseOffset,
    concat_fixed_step,
    concat_relative_pose,
    detect_cycles,
    estimate_offset,
    mosaic_cycles,
    register_sequence,
)
from .encoder import (
    Descriptor,
    EncoderArch,
    EncoderWeights,
    TrainConfig,
    TripletBatch,
    backward,
    encode,
    init_weights,
    mine_triplets,
    train,
    triplet_loss,
)
from .placedb import PlaceDB, PlaceRecord, QueryResult, max_f1, recall_at_n

__version__ = "0.1.0"
