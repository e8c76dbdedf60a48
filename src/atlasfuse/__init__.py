"""Multi-atlas thalamic segmentation toolkit.

WMn contrast synthesis from T1 maps, template-mediated multi-atlas
registration, majority-voting / joint label fusion, and segmentation
evaluation metrics with paired statistics.
"""

__version__ = "0.1.0"

from .grid import (  # noqa: F401
    AffineTransform,
    CropBox,
    DeformationField,
    Geometry,
    LabelScheme,
    LabelVolume,
    VolumeGrid,
    crop,
    default_scheme,
    label_bounding_box,
    resample,
)
from .imgio import read_field, read_volume, write_field, write_volume  # noqa: F401
from .register import (  # noqa: F401
    RegConfig,
    compose_fields,
    invert_field,
    register_affine,
    register_deformable,
    register_rigid,
    warp_labels,
)
from .synth import SynthesisParams, null_point_t1, synthesize_wmn  # noqa: F401
