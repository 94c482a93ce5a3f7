"""Exception types shared across the package.

Input / usage problems derive from InputError, numeric breakdowns from
NumericError.  The CLI maps these onto distinct exit codes.
"""


class RiskNetError(Exception):
    """Base class for all package-specific errors."""


class InputError(RiskNetError):
    """Malformed input data, configuration, or arguments."""


class NumericError(RiskNetError):
    """A computation produced values it cannot continue from."""


# ---- scenario ingestion ----

class MissingColumn(InputError):
    def __init__(self, name: str):
        super().__init__(f"required column missing: {name!r}")
        self.name = name


class NonContiguousTrack(InputError):
    def __init__(self, agent_id: int, gap_frame: int):
        super().__init__(
            f"track {agent_id} has a frame gap at frame {gap_frame}"
        )
        self.agent_id = agent_id
        self.gap_frame = gap_frame


class NonFinite(InputError):
    def __init__(self, row_index: int):
        super().__init__(f"non-finite value in data row {row_index}")
        self.row_index = row_index


class NonIntegral(InputError):
    def __init__(self, row_index: int, column: str, value: float):
        super().__init__(
            f"{column} in data row {row_index} is not an integer: {value!r}"
        )
        self.row_index = row_index
        self.column = column


class NonPositive(InputError):
    def __init__(self, row_index: int, column: str, value: float):
        super().__init__(
            f"{column} in data row {row_index} must be positive: {value!r}"
        )
        self.row_index = row_index
        self.column = column


class EgoAbsent(InputError):
    def __init__(self, ego_id: int, frame: int):
        super().__init__(f"agent {ego_id} is not present at frame {frame}")
        self.ego_id = ego_id
        self.frame = frame


class EmptyFrame(InputError):
    def __init__(self, frame: int):
        super().__init__(f"frame {frame} lies outside the scenario")
        self.frame = frame


class BadConfig(InputError):
    """Configuration file or override rejected."""


# ---- predictor ----

class ShapeMismatch(InputError):
    """Parameter or input dimensions disagree."""


class DegenerateCovariance(NumericError):
    """A mixture covariance is singular or non-finite."""


class NonFiniteLoss(NumericError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
        self.epoch = epoch


class ModelFormatError(InputError):
    """Serialized model manifest or payload is malformed."""
