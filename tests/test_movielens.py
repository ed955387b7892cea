import numpy as np
import pytest

from demfit.movielens import (
    CATEGORIES,
    GENRES,
    RatingsRecord,
    build_movielens_features,
    category_scores,
    convert_dat,
    genre_bits_from_names,
    parse_line,
    popularity_score,
    read_dat,
    read_ratings_file,
    write_ratings_file,
)


def bits(*names):
    return genre_bits_from_names(names)


def rec(user, movie, rating, ts, *genres):
    return RatingsRecord(user, movie, rating, ts, bits(*genres))


def test_genre_vocabulary():
    assert len(GENRES) == 19
    mapped = [g for _, members in CATEGORIES for g in members]
    assert len(mapped) == len(set(mapped)) == 18  # IMAX belongs to no category
    assert set(GENRES) - set(mapped) == {"IMAX"}


def test_category_scores_are_averages():
    g = bits("Action", "Adventure", "Comedy")
    # Action category has 6 members, 2 flagged; Comedy has 1 member, flagged
    np.testing.assert_allclose(category_scores(g), [2 / 6, 0.0, 1.0, 0.0])
    assert np.all(category_scores(bits("IMAX")) == 0.0)


def test_popularity_balanced_window_is_zero():
    # l = 15 of n = 30: logit(15.5 / 31) = logit(1/2) = 0
    assert popularity_score(15, 30) == pytest.approx(0.0, abs=1e-15)


def test_popularity_no_history_is_zero():
    # first rating of a movie: logit(0.5 / 1.0) = 0
    assert popularity_score(0, 0) == pytest.approx(0.0, abs=1e-15)


def test_popularity_window_and_exclusion():
    # 31 prior ratings of movie 7, all > 3: only the 30 most recent count
    records = [rec(100 + i, 7, 4.0, i, "Comedy") for i in range(31)]
    records.append(rec(1, 7, 2.0, 100, "Comedy"))
    sample = build_movielens_features(records)[1]
    assert sample.X[0, 4] == pytest.approx(popularity_score(30, 30))
    # the user's own current rating contributed nothing (strictly earlier only)
    first = build_movielens_features([rec(1, 9, 5.0, 0, "Drama")])[1]
    assert first.X[0, 4] == 0.0


def test_previous_rating_indicator():
    records = [
        rec(1, 10, 4.0, 0, "Comedy"),   # first record: previous = 0
        rec(1, 11, 2.0, 1, "Drama"),    # previous rating 4.0 > 3: 1
        rec(1, 12, 5.0, 2, "Comedy"),   # previous rating 2.0: 0
    ]
    s = build_movielens_features(records)[1]
    np.testing.assert_array_equal(s.X[:, 5], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(s.y, [4.0, 2.0, 5.0])
    np.testing.assert_array_equal(s.X, s.Z)
    assert s.X.shape == (3, 6)


def test_feature_pipeline_order_independent():
    rng = np.random.default_rng(0)
    records = []
    for t in range(300):
        g = [0] * 19
        g[int(rng.integers(0, 19))] = 1
        records.append(RatingsRecord(int(rng.integers(1, 9)), int(rng.integers(1, 15)),
                                     float(rng.integers(1, 11)) * 0.5, t, tuple(g)))
    a = build_movielens_features(records)
    shuffled = [records[i] for i in rng.permutation(len(records))]
    b = build_movielens_features(shuffled)
    assert a.keys() == b.keys()
    for uid in a:
        np.testing.assert_array_equal(a[uid].X, b[uid].X)
        np.testing.assert_array_equal(a[uid].y, b[uid].y)


def test_record_validation():
    with pytest.raises(ValueError, match="grid"):
        RatingsRecord(1, 1, 3.3, 0, bits("Comedy"))
    with pytest.raises(ValueError):
        RatingsRecord(1, 1, 3.0, 0, (1, 0))
    with pytest.raises(ValueError, match="unknown genre"):
        genre_bits_from_names(["Cooking"])


def test_parse_line_errors():
    good = "3,7,4.5,123," + "1" + "0" * 18
    r = parse_line(good)
    assert (r.user_id, r.movie_id, r.rating, r.timestamp) == (3, 7, 4.5, 123)
    assert r.genres[0] == 1
    with pytest.raises(ValueError, match="5 comma-separated"):
        parse_line("3,7,4.5,123")
    with pytest.raises(ValueError, match="bitfield"):
        parse_line("3,7,4.5,123,10")


def test_file_roundtrip(tmp_path):
    records = [rec(1, 2, 3.5, 10, "Action"), rec(2, 2, 5.0, 11, "War", "Drama")]
    path = tmp_path / "r.csv"
    assert write_ratings_file(path, records) == 2
    assert read_ratings_file(path) == records


def test_convert_dat(tmp_path):
    movies = tmp_path / "movies.dat"
    ratings = tmp_path / "ratings.dat"
    movies.write_text(
        "1::Some Film (1999)::Action|Sci-Fi\n"
        "2::Another (2001)::Children's|Comedy\n"
        "3::Nothing (2002)::(no genres listed)\n"
    )
    ratings.write_text("7::1::4::100\n8::2::3.5::101\n7::3::0.5::102\n")
    out = tmp_path / "out.csv"
    assert convert_dat(ratings, movies, out) == 3
    recs = read_ratings_file(out)
    assert recs[0].genres == bits("Action", "Sci-Fi")
    assert recs[1].genres == bits("Children", "Comedy")
    assert recs[2].genres == tuple([0] * 19)
    assert recs[1].rating == 3.5
    assert list(read_dat(ratings, movies)) == recs
    # an off-grid rating fails while converting, not when the output is read
    ratings.write_text("7::1::4::100\n8::2::4.2::101\n")
    with pytest.raises(ValueError, match="half-point grid"):
        convert_dat(ratings, movies, out)
