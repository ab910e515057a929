let default_size = 4096

type id = { hash : int64; len : int }

let id_of buf off len = { hash = Dice_util.Hashutil.fnv1a_bytes buf off len; len }

let split ~page_size b =
  assert (page_size > 0);
  let total = Bytes.length b in
  let rec go off acc =
    if off >= total then List.rev acc
    else begin
      let len = min page_size (total - off) in
      go (off + len) (id_of b off len :: acc)
    end
  in
  go 0 []

(* bounds are checked once, up front *)
external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

let matches page buf off =
  let len = Bytes.length page in
  (* eight bytes at a time, then the odd tail *)
  let rec words i =
    if i + 8 > len then tail i
    else (get64 page i : int64) = get64 buf (off + i) && words (i + 8)
  and tail i =
    i >= len || (Bytes.unsafe_get page i = Bytes.unsafe_get buf (off + i) && tail (i + 1))
  in
  off >= 0 && off + len <= Bytes.length buf && words 0

let count ~page_size size =
  assert (page_size > 0);
  (size + page_size - 1) / page_size

let equal_id a b = Int64.equal a.hash b.hash && a.len = b.len

let pp_id ppf t = Format.fprintf ppf "%Lx:%d" t.hash t.len
