"""Ratings-data ingestion and feature engineering.

Input is delimited text with one rating per line:

    user_id,movie_id,rating,timestamp,genre_bitfield

where genre_bitfield is a 19-character 0/1 string over GENRES (in order).
`read_dat` reads the common "::"-separated ratings.dat/movies.dat pair.
Feature building turns each user's rating history into one mixed-model
sample with six columns (X = Z):

  0-3  genre-category scores: the movie's flags for the genres mapped to
       the category, averaged over the category's genre list
  4    popularity: logit((l + 0.5) / (n + 1.0)) where n counts the movie's
       ratings among its 30 most recent strictly-earlier ratings (across
       all users) and l counts those rated above 3.  The current rating is
       excluded, so a movie's first rating scores logit(0.5/1.0) = 0.
  5    previous: 1 if the same user's previous rating was above 3, else 0
       (a user's first rating gets 0).
"""
from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .lmm import Sample

GENRES = (
    "Action",
    "Adventure",
    "Animation",
    "Children",
    "Comedy",
    "Crime",
    "Documentary",
    "Drama",
    "Fantasy",
    "Film-Noir",
    "Horror",
    "IMAX",
    "Musical",
    "Mystery",
    "Romance",
    "Sci-Fi",
    "Thriller",
    "War",
    "Western",
)

# IMAX belongs to no category; it is a format tag, not a genre.
CATEGORIES = (
    ("Action", ("Action", "Adventure", "Fantasy", "Horror", "Sci-Fi", "Thriller")),
    ("Children", ("Animation", "Children")),
    ("Comedy", ("Comedy",)),
    ("Drama", ("Crime", "Documentary", "Drama", "Film-Noir", "Musical", "Mystery",
               "Romance", "War", "Western")),
)

_GENRE_INDEX = {g: i for i, g in enumerate(GENRES)}
_VALID_RATINGS = {0.5 * k for k in range(1, 11)}
POPULARITY_WINDOW = 30


@dataclass(frozen=True)
class RatingsRecord:
    user_id: int
    movie_id: int
    rating: float
    timestamp: int
    genres: tuple  # 19 binary flags, GENRES order

    def __post_init__(self):
        if self.rating not in _VALID_RATINGS:
            raise ValueError(
                f"rating {self.rating} not on the 0.5..5.0 half-point grid"
            )
        if len(self.genres) != len(GENRES) or any(g not in (0, 1) for g in self.genres):
            raise ValueError("genres must be 19 binary flags")


def category_scores(genres: Sequence[int]) -> np.ndarray:
    """Four per-category means of the movie's genre flags."""
    return np.array(
        [
            sum(genres[_GENRE_INDEX[g]] for g in members) / len(members)
            for _, members in CATEGORIES
        ]
    )


def popularity_score(l: int, n: int) -> float:
    p = (l + 0.5) / (n + 1.0)
    return math.log(p / (1.0 - p))


def build_movielens_features(records: Iterable[RatingsRecord]) -> dict[int, Sample]:
    """Per-user Samples keyed by user id.

    Deterministic given the record set: records are processed in global
    (timestamp, user, movie) order regardless of input order.
    """
    recs = sorted(records, key=lambda r: (r.timestamp, r.user_id, r.movie_id))
    movie_hist: dict[int, deque] = defaultdict(lambda: deque(maxlen=POPULARITY_WINDOW))
    user_prev: dict[int, float] = {}
    rows: dict[int, list] = defaultdict(list)
    ys: dict[int, list] = defaultdict(list)
    for r in recs:
        hist = movie_hist[r.movie_id]
        n = len(hist)
        l = sum(1 for v in hist if v > 3.0)
        prev = user_prev.get(r.user_id)
        row = np.concatenate(
            [
                category_scores(r.genres),
                [popularity_score(l, n), 1.0 if (prev is not None and prev > 3.0) else 0.0],
            ]
        )
        rows[r.user_id].append(row)
        ys[r.user_id].append(r.rating)
        hist.append(r.rating)
        user_prev[r.user_id] = r.rating
    out = {}
    for uid in rows:
        X = np.vstack(rows[uid])
        out[uid] = Sample(y=np.array(ys[uid]), X=X, Z=X.copy())
    return out


# -- file formats ------------------------------------------------------------


def parse_line(line: str) -> RatingsRecord:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 comma-separated fields, got {len(parts)}")
    user, movie, rating, ts, bits = parts
    if len(bits) != len(GENRES) or set(bits) - {"0", "1"}:
        raise ValueError(f"bad genre bitfield {bits!r}")
    return RatingsRecord(
        user_id=int(user),
        movie_id=int(movie),
        rating=float(rating),
        timestamp=int(ts),
        genres=tuple(int(c) for c in bits),
    )


def _parse_lines(path, parse, **open_args) -> Iterator:
    """parse(line) for each non-blank line of the file at path; a
    ValueError names the file and line."""
    with open(path, **open_args) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = parse(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            yield value


def read_ratings_file(path) -> list[RatingsRecord]:
    return list(_parse_lines(path, parse_line))


def write_ratings_file(path, records: Iterable[RatingsRecord]) -> int:
    """Write records in the delimited format; returns how many were written."""
    count = 0
    with open(path, "w") as fh:
        for r in records:
            bits = "".join(str(g) for g in r.genres)
            fh.write(f"{r.user_id},{r.movie_id},{r.rating},{r.timestamp},{bits}\n")
            count += 1
    return count


def genre_bits_from_names(names: Iterable[str]) -> tuple:
    flags = [0] * len(GENRES)
    for name in names:
        name = name.strip()
        if name == "Children's":  # older dumps use the possessive form
            name = "Children"
        if name in ("", "(no genres listed)"):
            continue
        if name not in _GENRE_INDEX:
            raise ValueError(f"unknown genre {name!r}")
        flags[_GENRE_INDEX[name]] = 1
    return tuple(flags)


def read_dat(ratings_path, movies_path) -> Iterator[RatingsRecord]:
    """Stream the records of a "::"-separated ratings.dat/movies.dat pair; a
    malformed line, or a rating of a movie not in movies.dat, is a
    ValueError naming its file and line."""

    def movie_line(line):
        movie_id, _title, genre_field = line.rstrip("\n").split("::")
        return int(movie_id), genre_bits_from_names(genre_field.split("|"))

    genres_by_movie = dict(_parse_lines(movies_path, movie_line,
                                        encoding="utf-8", errors="replace"))

    def rating_line(line):
        user, movie, rating, ts = line.rstrip("\n").split("::")
        genres = genres_by_movie.get(int(movie))
        if genres is None:
            raise ValueError(f"movie {int(movie)} is not in {movies_path}")
        return RatingsRecord(int(user), int(movie), float(rating), int(ts), genres)

    yield from _parse_lines(ratings_path, rating_line)


def convert_dat(ratings_path, movies_path, out_path) -> int:
    """Convert a "::"-separated ratings.dat/movies.dat pair to the delimited
    format above.  Returns the number of records written."""
    return write_ratings_file(out_path, read_dat(ratings_path, movies_path))
