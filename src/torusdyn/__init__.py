"""Rotation sets, homoclinic tangles and confinement sets for lifted
area-preserving torus diffeomorphisms, with desk-scale numerical probes of
their structural properties."""

from .maps import (
    LiftedTorusMap,
    deck_residual,
    make_drift_shear,
    make_identity_map,
    make_standard_map,
    make_translation_map,
)
from .rotation import (
    RotationInterval,
    RotationPolygon,
    estimate_rotation_set,
    estimate_vertical_rotation_set,
    seed_grid,
)
from .periodic import PeriodicPoint, newton_periodic, sweep_periodic
from .manifolds import (
    CrossingWitness,
    ManifoldCurve,
    detect_crossings,
    eigen_frame,
    grow_manifold,
    mixing_probe,
    polyline_curve,
    translate_scan,
)
from .confinement import (
    ConfinementCloud,
    DiskReport,
    complement_disk_stats,
    compute_confinement,
    omega_probe,
)
from .sft import (
    BoundedDeviationOrbit,
    WeightedSft,
    bounded_deviation_orbit,
    cycle_rotation_hull,
    make_sft,
    parse_sft,
    verify_deviation,
)

__version__ = "0.1.0"
