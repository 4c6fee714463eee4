"""Exception types shared across the package, and the input coercions that raise them."""


class HillgapsError(Exception):
    """Base class for all package errors."""


class InputError(HillgapsError):
    """Invalid user input: bad files, bad parameters, violated preconditions."""


class NumericalError(HillgapsError):
    """A numerical method failed on valid input: overflow, or a failed accuracy check."""


class InterlacingError(NumericalError):
    """Computed band edges violate the interlacing ordering.

    Usually signals insufficient truncation or integration resolution.
    """

    def __init__(self, n: int, detail: str):
        self.n = n
        super().__init__(f"interlacing violated at n={n}: {detail}")


class IntegrationError(NumericalError):
    """The ODE integrator overflowed, or failed its accuracy witness at every step count it tried."""


class BracketError(NumericalError):
    """A root bracket could not be established within the search budget."""


def as_float(value, what: str) -> float:
    """``float(value)``; InputError naming ``what`` when value is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a number, got {value!r}") from exc


def as_int(value, what: str) -> int:
    """Value of an int, an integral float or an integer string; InputError otherwise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{what} must be an integer, got {value!r}")
