"""Package-level error types: one for failed numerics, whether they did
not converge or went non-finite, and one naming a failed run stage."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge, became unstable or produced
    NaN or infinity where finite values are required."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; `stage` names the failing stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
