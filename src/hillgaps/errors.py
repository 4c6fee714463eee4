"""Exception types shared across the package, and the input coercions that raise them."""


class HillgapsError(Exception):
    """Base class for all package errors."""


class InputError(HillgapsError):
    """Invalid user input: bad files, bad parameters, violated preconditions."""


class InterlacingError(HillgapsError):
    """Computed band edges violate the interlacing ordering.

    Usually signals insufficient truncation or integration resolution.
    """

    def __init__(self, n: int, detail: str):
        self.n = n
        super().__init__(f"interlacing violated at n={n}: {detail}")


class IntegrationError(HillgapsError):
    """The ODE integrator failed its accuracy witness after all retries."""


class BracketError(HillgapsError):
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
