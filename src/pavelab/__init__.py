"""pavelab: paving partitions, Dixmier averaging, and index invariants for
finite-dimensional operator-algebra inclusions."""

from .algebra import (AlgebraShape, Element, PartitionOfUnity, CyclicUnitary,
                      identity, zero, trace, op_norm, random_haar_unitary,
                      random_element)
from .inclusion import (InclusionSpec, Inclusion, build_inclusion,
                        expectation_index_estimate, expectation_inequality_margin,
                        expectation_support_bound, orthonormal_basis, d_ob,
                        d_ob_interval)
from .families import scalars_in, tensor_product, self_inclusion, parse_family
from .paving import (PavingProblem, PipelineConfig, SearchConfig,
                     PavingCertificate, paving_partition_bound,
                     averaging_count_lower_bound, dixmier_count_bound,
                     pave_constructive, pave_search, verify,
                     dixmier_average_run, l2_pave, scan)
from .freeness import (KestenExperiment, KestenResult, kesten_bound,
                       freeness_defect, run_kesten)

__version__ = "0.1.0"
